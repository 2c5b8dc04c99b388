package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the shard transport: the transport behind every Node,
// networked (NewHTTPNode) or on loopback (NewLocalNode). It is written
// for the router's traffic and nothing else — a handful of peers, small
// JSON requests, replies the router always reads whole — and that is
// what lets it drop what net/http's client spends most of its time on
// (DESIGN.md §15, "shard transport"). A round trip runs entirely on the
// calling goroutine: take a pooled connection, write the request with
// one Write, parse the reply off the connection's own bufio.Reader to
// its last byte, put the connection back. No reader or writer
// goroutine, no channel hand-off, no per-request timer.
//
// Four rules, each guarding a contract of the router's:
//
//   - Never re-send. A request that may have reached the shard is not
//     repeated on another connection: a write the shard already charged
//     and applied must not apply twice, and reads fail over one layer
//     up (serveReplicaRead, scatterRead), where the retry is counted.
//   - Flush on error. A failed round trip closes every idle connection
//     of the node: after a shard restart they are all dead, and each one
//     tried would fail one more statement and re-latch the peer.
//   - Idle cut-off. A connection idle for peerIdleCutoff is closed at
//     checkout, not tried: the shard's http.Server closes idle
//     connections itself, and a request written into a connection the
//     peer has just closed is a failure the never-re-send rule forbids
//     papering over.
//   - Cancel closes. Cancellation and -shard-timeout reach a blocked
//     round trip through the connection deadline; a connection whose
//     deadline was poked is closed, never pooled, because the poke may
//     land after the reply was read and would fail the next caller.

const (
	// peerMaxIdle bounds a node's idle pool: 64 is the
	// MaxIdleConnsPerHost the http.Transport here was tuned to in PR 9,
	// the fan-out a busy router sustains against one shard.
	peerMaxIdle = 64
	// peerIdleCutoff is half of the 2-minute IdleTimeout cmd/delaydb
	// gives a shard's http.Server by default (-idletimeout), as
	// NewLocalNode does, so a pooled connection is dropped long before
	// the shard would close it under a request.
	peerIdleCutoff = time.Minute
	// peerDialTimeout bounds connect plus TLS handshake: net/http's
	// DefaultTransport dials with the same 30 s.
	peerDialTimeout = 30 * time.Second
	// peerRPCCeiling is the most one of the router's own calls may take
	// when -shard-timeout is not shorter: the 5-minute http.Client.Timeout
	// NewHTTPNode used to set. A principal's statement has none: the
	// shard holds its reply for the charged delay, however long that is,
	// and the client's own context or -shard-timeout ends it.
	peerRPCCeiling = 5 * time.Minute
	// peerReadBuf is the size of a connection's bufio.Reader, which also
	// bounds a reply's status, header and chunk-size lines: 4 KiB is what
	// net/http's client reads with.
	peerReadBuf = 4 << 10
	// peerKeepBuf is the largest request buffer a pooled connection
	// keeps: a /query body is under 2 KiB (queryBuf), a 1 MiB migrate
	// page must not stay pinned to every connection that once carried it.
	peerKeepBuf = 16 << 10
	// peerMaxHeaders bounds the header (and trailer) lines of one reply;
	// a delaydb shard sends three or four.
	peerMaxHeaders = 64
	// peerReadStep bounds how much body is allocated ahead of the bytes
	// actually arriving, so a corrupt length cannot ask for the heap.
	peerReadStep = 1 << 20
)

// longAgo is a deadline in the past: setting it fails a connection's
// blocked and future I/O at once.
var longAgo = time.Unix(1, 0)

// ParsePeerURL parses a shard's base URL and rejects what the shard
// transport cannot dial: a scheme other than http or https, or no host.
func ParsePeerURL(base string) (*url.URL, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("peer URL: %v", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("peer URL %q: scheme must be http or https", base)
	}
	if u.Hostname() == "" {
		return nil, fmt.Errorf("peer URL %q: no host", base)
	}
	return u, nil
}

// peerTransport is one node's connection pool and its transport.
type peerTransport struct {
	addr string      // host:port dialled
	host string      // Host header
	tls  *tls.Config // nil for an http peer
	bad  error       // set when the base URL cannot be dialled; every round trip returns it
	// ceiling is peerRPCCeiling, kept per transport so a test can
	// shorten it for one node.
	ceiling time.Duration

	dials atomic.Int64

	mu sync.Mutex
	// idle is a stack: the top is the connection used last, so idle
	// times only grow towards the bottom — the hot connections stay hot
	// and a stale top means everything under it is stale too.
	idle []*peerConn
}

// peerConn is one persistent connection with the buffers it reuses.
type peerConn struct {
	nc        net.Conn
	br        *bufio.Reader
	wbuf      []byte
	idleSince time.Time
}

func newPeerTransport(base string) *peerTransport {
	u, err := ParsePeerURL(base)
	if err != nil {
		return &peerTransport{bad: err}
	}
	t := &peerTransport{host: u.Host, ceiling: peerRPCCeiling}
	port := u.Port()
	if u.Scheme == "https" {
		t.tls = &tls.Config{ServerName: u.Hostname()}
		if port == "" {
			port = "443"
		}
	} else if port == "" {
		port = "80"
	}
	t.addr = net.JoinHostPort(u.Hostname(), port)
	return t
}

// idleConns is the current size of the idle pool.
func (t *peerTransport) idleConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle)
}

// roundTrip sends c over a pooled connection and returns the reply
// with its body already read to the end, so the connection is back in
// the pool (or closed) before the caller sees the reply.
func (t *peerTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if err := ctx.Err(); err != nil {
		return reply{}, err
	}
	now := time.Now()
	pc, err := t.checkout(ctx, now)
	if err != nil {
		return reply{}, err
	}
	// The ceiling goes on before the cancel hook is armed: set after it,
	// it could overwrite the hook's deadline and lose a cancellation. A
	// call with an identity is a principal's, held for its delay: the
	// zero deadline clears what a pooled connection's last call left.
	var deadline time.Time
	if c.identity == "" {
		deadline = now.Add(t.ceiling)
	}
	err = pc.nc.SetDeadline(deadline)
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { pc.nc.SetDeadline(longAgo) })
	}
	var rep reply
	reuse := false
	if err == nil {
		rep, reuse, err = pc.exchange(c, t.host)
	}
	// A hook that ran or is running can poke the deadline at any moment
	// from now on, so the connection carries nothing more.
	poked := stop != nil && !stop()
	switch {
	case err != nil && poked:
		pc.nc.Close()
		return reply{}, fmt.Errorf("peer %s: %w", t.addr, ctx.Err())
	case err != nil:
		pc.nc.Close()
		t.flush()
		return reply{}, fmt.Errorf("peer %s: %w", t.addr, err)
	case reuse && !poked:
		t.checkin(pc)
	default:
		pc.nc.Close()
	}
	return rep, nil
}

// checkout pops the most recently used idle connection, or dials. A top
// of the stack past the cut-off empties the pool: everything under it
// has been idle longer.
func (t *peerTransport) checkout(ctx context.Context, now time.Time) (*peerConn, error) {
	t.mu.Lock()
	var stale []*peerConn
	if n := len(t.idle); n > 0 {
		c := t.idle[n-1]
		if now.Sub(c.idleSince) < peerIdleCutoff {
			t.idle[n-1] = nil
			t.idle = t.idle[:n-1]
			t.mu.Unlock()
			return c, nil
		}
		stale, t.idle = t.idle, nil
	}
	t.mu.Unlock()
	closeConns(stale)
	return t.dial(ctx)
}

// checkin pushes c onto the idle stack. The bottom of the stack — the
// connection idle longest — is dropped once it is past the cut-off, so
// a pool grown by one burst drains without a reaper goroutine.
func (t *peerTransport) checkin(c *peerConn) {
	c.idleSince = time.Now()
	var drop *peerConn
	t.mu.Lock()
	if n := len(t.idle); n > 0 && (n == peerMaxIdle || c.idleSince.Sub(t.idle[0].idleSince) >= peerIdleCutoff) {
		drop = t.idle[0]
		t.idle = append(t.idle[:0], t.idle[1:]...)
	}
	t.idle = append(t.idle, c)
	t.mu.Unlock()
	if drop != nil {
		drop.nc.Close()
	}
}

// flush closes every idle connection.
func (t *peerTransport) flush() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	closeConns(idle)
}

func closeConns(cs []*peerConn) {
	for _, c := range cs {
		c.nc.Close()
	}
}

// dial opens a connection: TCP, then TLS for an https peer.
func (t *peerTransport) dial(ctx context.Context) (*peerConn, error) {
	if t.bad != nil {
		return nil, t.bad
	}
	t.dials.Add(1)
	ctx, cancel := context.WithTimeout(ctx, peerDialTimeout)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	if t.tls != nil {
		tc := tls.Client(nc, t.tls)
		if err := tc.HandshakeContext(ctx); err != nil {
			nc.Close()
			return nil, err
		}
		nc = tc
	}
	return &peerConn{nc: nc, br: bufio.NewReaderSize(nc, peerReadBuf)}, nil
}

// exchange writes c and reads its reply. reuse reports whether the
// connection may carry another request.
func (pc *peerConn) exchange(c *call, host string) (rep reply, reuse bool, err error) {
	b, err := appendRequest(pc.wbuf[:0], c, host)
	if err != nil {
		return reply{}, false, err
	}
	_, err = pc.nc.Write(b)
	if cap(b) <= peerKeepBuf {
		pc.wbuf = b
	} else {
		pc.wbuf = nil
	}
	if err != nil {
		return reply{}, false, err
	}
	rep, reuse, err = readReply(pc.br, c.method)
	if err != nil {
		return reply{}, false, err
	}
	// Bytes past the reply belong to no request: the stream is out of
	// step and the next reply read off it would be someone else's.
	return rep, reuse && pc.br.Buffered() == 0, nil
}

// appendRequest appends c in wire form — request line, Host, the
// client's identity, Content-Type and Content-Length for a
// body, blank line, body — so one Write sends it.
func appendRequest(b []byte, c *call, host string) ([]byte, error) {
	if strings.ContainsAny(c.method, " \r\n") || strings.ContainsAny(c.path, " \r\n") {
		return nil, fmt.Errorf("request line %q %q: illegal character", c.method, c.path)
	}
	if strings.ContainsAny(c.identity, "\r\n") {
		return nil, fmt.Errorf("header value %q: illegal character", c.identity)
	}
	b = append(b, c.method...)
	b = append(b, ' ')
	b = append(b, c.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	if c.identity != "" {
		b = append(b, "X-Identity: "...)
		b = append(b, c.identity...)
		b = append(b, "\r\n"...)
	}
	if c.body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(c.body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, c.body...), nil
}

var errReplyFraming = errors.New("malformed reply")

// readReply parses one HTTP/1.x reply to a method request off br —
// status line, headers, a Content-Length, chunked or close-delimited
// body, trailers — consuming exactly the reply's bytes. reuse is false
// when the reply ends the connection (Connection: close, HTTP/1.0,
// close-delimited body). It is stricter than net/http wherever a reply
// is ambiguous (both framings, repeated Content-Length, folded header
// lines): a shard never sends those, and a transport that guesses can
// be made to mis-frame.
func readReply(br *bufio.Reader, method string) (rep reply, reuse bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return reply{}, false, err
	}
	// "HTTP/1.x NNN" then the end of the line or " reason".
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') ||
		line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return reply{}, false, fmt.Errorf("%w: status line %q", errReplyFraming, line)
	}
	code := 0
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return reply{}, false, fmt.Errorf("%w: status line %q", errReplyFraming, line)
		}
		code = code*10 + int(d-'0')
	}
	if code < 100 {
		return reply{}, false, fmt.Errorf("%w: status line %q", errReplyFraming, line)
	}
	http10 := line[7] == '0'

	h := replyHeaders{closing: http10}
	if err := h.read(br, http10); err != nil {
		return reply{}, false, err
	}
	if h.lengths > 1 {
		return reply{}, false, fmt.Errorf("%w: repeated Content-Length", errReplyFraming)
	}
	if h.encodings > 0 && (h.encodings != 1 || !h.chunked || http10 || h.lengths > 0) {
		return reply{}, false, fmt.Errorf("%w: Transfer-Encoding with %d values, Content-Length %d", errReplyFraming, h.encodings, h.length)
	}

	rep = reply{status: code, contentType: h.contentType, retryAfter: h.retryAfter}
	switch {
	case method == http.MethodHead || code < 200 || code == http.StatusNoContent || code == http.StatusNotModified:
		// no body, whatever the headers say
	case h.chunked:
		if rep.body, err = readChunked(br); err != nil {
			return reply{}, false, err
		}
	case h.lengths == 1:
		if rep.body, err = appendN(nil, br, h.length); err != nil {
			return reply{}, false, err
		}
	default:
		// Delimited by the end of the connection.
		if rep.body, err = io.ReadAll(br); err != nil {
			return reply{}, false, err
		}
		h.closing = true
	}
	return rep, !h.closing, nil
}

// noEOF turns the end of the stream into the error it is anywhere
// inside a reply, the status line of an awaited one included.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readLine returns the next line without its line ending. The slice is
// br's own and is valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, noEOF(err) // bufio.ErrBufferFull: a line longer than peerReadBuf
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// replyHeaders is what the transport keeps of a header block: the four
// fields that frame the reply or describe its body, and a refusal's
// Retry-After. Every other field — and every trailer — is checked for
// form and dropped.
type replyHeaders struct {
	contentType string
	retryAfter  string
	typed       bool  // a Content-Type was seen: the first one counts
	length      int64 // the first Content-Length
	lengths     int   // Content-Length fields seen
	encodings   int   // Transfer-Encoding fields seen
	chunked     bool  // the first of them says chunked
	closing     bool
}

// read consumes header lines up to the blank one.
func (h *replyHeaders) read(br *bufio.Reader, http10 bool) error {
	for n := 0; ; n++ {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return nil
		}
		colon := bytes.IndexByte(line, ':')
		if n == peerMaxHeaders || colon <= 0 || bytes.ContainsAny(line[:colon], " \t") {
			return fmt.Errorf("%w: header line %q", errReplyFraming, line)
		}
		name, v := line[:colon], bytes.Trim(line[colon+1:], " \t")
		switch {
		case isField(name, "content-type"):
			switch {
			case h.typed:
			case string(v) == "application/json": // what a shard sends: no allocation
				h.contentType = "application/json"
			default:
				h.contentType = string(v)
			}
			h.typed = true
		case isField(name, "retry-after"):
			h.retryAfter = string(v)
		case isField(name, "content-length"):
			if h.lengths++; h.lengths == 1 {
				if h.length, err = parseLength(string(v), 10); err != nil {
					return err
				}
			}
		case isField(name, "transfer-encoding"):
			if h.encodings++; h.encodings == 1 {
				h.chunked = isField(v, "chunked")
			}
		case isField(name, "connection"):
			for len(v) > 0 {
				var tok []byte
				tok, v, _ = bytes.Cut(v, []byte(","))
				switch tok = bytes.TrimSpace(tok); {
				case isField(tok, "close"):
					h.closing = true
				case isField(tok, "keep-alive") && http10:
					h.closing = false
				}
			}
		}
	}
}

// isField reports whether b is the lower-case ASCII word, in any case.
func isField(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// parseLength parses a body or chunk length: digits of the base only,
// no sign, at most 15 of them (far beyond any reply, and no overflow).
func parseLength(s string, base int) (int64, error) {
	if len(s) == 0 || len(s) > 15 {
		return 0, fmt.Errorf("%w: length %q", errReplyFraming, s)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9') && !(base == 16 && (c|0x20) >= 'a' && (c|0x20) <= 'f') {
			return 0, fmt.Errorf("%w: length %q", errReplyFraming, s)
		}
	}
	return strconv.ParseInt(s, base, 64)
}

// readChunked reads a chunked body through its last chunk and trailers.
func readChunked(br *bufio.Reader) (body []byte, err error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if semi := bytes.IndexByte(line, ';'); semi >= 0 {
			line = line[:semi] // chunk extension
		}
		size, err := parseLength(string(line), 16)
		if err != nil {
			return nil, err
		}
		if size == 0 {
			break
		}
		if body, err = appendN(body, br, size); err != nil {
			return nil, err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(br, crlf[:]); err != nil {
			return nil, noEOF(err)
		}
		if crlf != [2]byte{'\r', '\n'} {
			return nil, fmt.Errorf("%w: chunk not followed by CRLF", errReplyFraming)
		}
	}
	var trailers replyHeaders
	return body, trailers.read(br, false)
}

// appendN appends exactly n bytes read from br to b, allocating at most
// peerReadStep ahead of what has arrived.
func appendN(b []byte, br *bufio.Reader, n int64) ([]byte, error) {
	for n > 0 {
		step := int(min(n, peerReadStep))
		b = slices.Grow(b, step)
		m, err := io.ReadFull(br, b[len(b):len(b)+step])
		b = b[:len(b)+m]
		if err != nil {
			return nil, noEOF(err)
		}
		n -= int64(step)
	}
	return b, nil
}
