package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"syscall"
)

// conn is one persistent HTTP/1.1 connection of the load generator: a
// blocking socket read and written with plain system calls. The worker
// that owns it is locked to an OS thread, so neither the Go scheduler nor
// the netpoller sits between a reply's arrival and its timestamp.
type conn struct {
	fd   int
	rd   *bufio.Reader
	sql  []byte // statement scratch
	req  []byte // request scratch
	body []byte // reply body scratch
	sent int64  // request bytes written, all requests
	recv int64  // reply bytes read, headers included
}

type fdReader struct {
	fd int
	n  *int64
}

func (r fdReader) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(r.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, io.EOF
		}
		*r.n += int64(n)
		return n, nil
	}
}

// dial opens a blocking TCP connection to a loopback "ip:port" address.
func dial(addr string) (*conn, error) {
	tcp, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: tcp.Port}
	copy(sa.Addr[:], tcp.IP.To4())
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("TCP_NODELAY: %w", err)
	}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	c := &conn{fd: fd}
	c.rd = bufio.NewReaderSize(fdReader{fd: fd, n: &c.recv}, 64<<10)
	return c, nil
}

func (c *conn) close() { syscall.Close(c.fd) }

func (c *conn) write(p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Write(c.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		c.sent += int64(n)
		p = p[n:]
	}
	return nil
}

// buildQuery renders POST /query for sql (already in c.sql or any other
// buffer) into c.req. The benchmark's SQL needs no JSON escaping.
func (c *conn) buildQuery(identity string, sql []byte) []byte {
	b := append(c.req[:0], "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nX-Identity: "...)
	b = append(b, identity...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(sql)+len(`{"sql":""}`)), 10)
	b = append(b, "\r\n\r\n{\"sql\":\""...)
	b = append(b, sql...)
	b = append(b, "\"}"...)
	c.req = b
	return b
}

var errMalformed = errors.New("malformed HTTP reply")

// roundTrip writes req and reads one reply. The returned body aliases the
// connection's scratch and is valid until the next call.
func (c *conn) roundTrip(req []byte) (status int, body []byte, err error) {
	if err := c.write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, errMalformed
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errMalformed
	}
	length, chunked := -1, false
	for {
		line, err = c.rd.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, errMalformed
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, errMalformed
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.rd.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, perr := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if perr != nil {
				return 0, nil, errMalformed
			}
			if size == 0 {
				// No trailers are sent; the terminating CRLF remains.
				if _, err = c.rd.Discard(2); err != nil {
					return 0, nil, err
				}
				break
			}
			if err = c.readBody(int(size)); err != nil {
				return 0, nil, err
			}
			if _, err = c.rd.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errMalformed // a keep-alive reply always frames its body
	}
	return status, c.body, nil
}

func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.rd, c.body[at:])
	return err
}

// queryReply is what validation needs from a /query reply body.
type queryReply struct {
	rows        int
	firstID     int64 // first column of the first row, as an integer
	lastID      int64
	contiguous  bool   // first columns ascend by exactly one
	firstV      []byte // second column of the first row; aliases the body
	affected    int
	delayMillis float64
	hasDelay    bool
}

// parseQueryReply scans a server.QueryResponse body without building it:
// a 1000-row reply costs the generator microseconds, not a decode.
func parseQueryReply(body []byte) (queryReply, bool) {
	s := scanner{b: body}
	var r queryReply
	r.contiguous = true
	if !s.expect('{') {
		return r, false
	}
	for {
		key, ok := s.str()
		if !ok || !s.expect(':') {
			return r, false
		}
		switch string(key) {
		case "rows":
			if !s.rows(&r) {
				return r, false
			}
		case "affected":
			n, ok := s.number()
			if !ok {
				return r, false
			}
			r.affected = int(n)
		case "delay_millis":
			if r.delayMillis, r.hasDelay = s.number(); !r.hasDelay {
				return r, false
			}
		default:
			if !s.skipValue() {
				return r, false
			}
		}
		if s.expect(',') {
			continue
		}
		return r, s.expect('}')
	}
}

// scanner walks JSON just far enough for parseQueryReply.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

func (s *scanner) expect(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string and returns its raw contents (escapes untouched).
func (s *scanner) str() ([]byte, bool) {
	if !s.expect('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return s.b[start : s.i-1], true
		default:
			s.i++
		}
	}
	return nil, false
}

func (s *scanner) number() (float64, bool) {
	s.ws()
	start := s.i
	for s.i < len(s.b) && (s.b[s.i] == '-' || s.b[s.i] == '+' || s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E' || (s.b[s.i] >= '0' && s.b[s.i] <= '9')) {
		s.i++
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

func (s *scanner) rows(r *queryReply) bool {
	if !s.expect('[') {
		// "rows":null never appears (omitempty), but tolerate it.
		return s.skipValue()
	}
	if s.expect(']') {
		return true
	}
	for {
		if !s.expect('[') {
			return false
		}
		for col := 0; ; col++ {
			v, ok := s.str()
			if !ok {
				return false
			}
			if col == 0 {
				id, err := strconv.ParseInt(string(v), 10, 64)
				if err != nil {
					return false
				}
				if r.rows == 0 {
					r.firstID = id
				} else if id != r.lastID+1 {
					r.contiguous = false
				}
				r.lastID = id
			} else if col == 1 && r.rows == 0 {
				r.firstV = v
			}
			if !s.expect(',') {
				break
			}
		}
		if !s.expect(']') {
			return false
		}
		r.rows++
		if !s.expect(',') {
			return s.expect(']')
		}
	}
}

func (s *scanner) skipValue() bool {
	s.ws()
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		_, ok := s.str()
		return ok
	case '[', '{':
		depth := 0
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case '"':
				if _, ok := s.str(); !ok {
					return false
				}
				continue
			case '[', '{':
				depth++
			case ']', '}':
				depth--
			}
			s.i++
			if depth == 0 {
				return true
			}
		}
		return false
	default:
		for s.i < len(s.b) && s.b[s.i] != ',' && s.b[s.i] != '}' && s.b[s.i] != ']' {
			s.i++
		}
		return true
	}
}
