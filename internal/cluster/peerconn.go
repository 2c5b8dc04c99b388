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
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the shard transport: the http.RoundTripper behind every
// NewHTTPNode. It is written for the router's traffic and nothing else —
// a handful of peers, small JSON requests, replies the router always
// reads whole — and that is what lets it drop what net/http's client
// spends most of its time on (DESIGN.md §15, "shard transport"). A round
// trip runs entirely on the calling goroutine: take a pooled connection,
// write the request with one Write, parse the reply off the connection's
// own bufio.Reader to its last byte, put the connection back. No reader
// or writer goroutine, no channel hand-off, no per-request timer.
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
	// gives a shard's http.Server by default (-idletimeout), so a pooled
	// connection is dropped long before the shard would close it under
	// a request.
	peerIdleCutoff = time.Minute
	// peerDialTimeout bounds connect plus TLS handshake: net/http's
	// DefaultTransport dials with the same 30 s.
	peerDialTimeout = 30 * time.Second
	// peerRPCCeiling is the most one round trip may take when nothing
	// shorter (-shard-timeout, the client's own deadline) applies: the
	// 5-minute http.Client.Timeout NewHTTPNode used to set.
	peerRPCCeiling = 5 * time.Minute
	// peerReadBuf is the size of a connection's bufio.Reader, which also
	// bounds a reply's status, header and chunk-size lines: 4 KiB is what
	// net/http's client reads with.
	peerReadBuf = 4 << 10
	// peerKeepBuf is the largest request buffer a pooled connection
	// keeps: a /query body is under 2 KiB (bodyScratch), a 1 MiB migrate
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

// peerTransport is one node's connection pool and its RoundTripper.
type peerTransport struct {
	addr string      // host:port dialled
	host string      // Host header
	tls  *tls.Config // nil for an http peer
	bad  error       // set when the base URL cannot be dialled; every round trip returns it

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
	t := &peerTransport{host: u.Host}
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

// RoundTrip sends req over a pooled connection and returns the reply
// with its body already read to the end, so the connection is back in
// the pool (or closed) before the caller sees the response.
func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now()
	c, err := t.checkout(ctx, now)
	if err != nil {
		return nil, err
	}
	// The ceiling goes on before the cancel hook is armed: set after it,
	// it could overwrite the hook's deadline and lose a cancellation.
	err = c.nc.SetDeadline(now.Add(peerRPCCeiling))
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { c.nc.SetDeadline(longAgo) })
	}
	var resp *http.Response
	reuse := false
	if err == nil {
		resp, reuse, err = c.exchange(req, t.host)
	}
	// A hook that ran or is running can poke the deadline at any moment
	// from now on, so the connection carries nothing more.
	poked := stop != nil && !stop()
	switch {
	case err != nil && poked:
		c.nc.Close()
		return nil, fmt.Errorf("peer %s: %w", t.addr, ctx.Err())
	case err != nil:
		c.nc.Close()
		t.flush()
		return nil, fmt.Errorf("peer %s: %w", t.addr, err)
	case reuse && !poked:
		t.checkin(c)
	default:
		c.nc.Close()
	}
	return resp, nil
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

// exchange writes req and reads its reply. reuse reports whether the
// connection may carry another request.
func (c *peerConn) exchange(req *http.Request, host string) (resp *http.Response, reuse bool, err error) {
	b, err := appendRequest(c.wbuf[:0], req, host)
	if err != nil {
		return nil, false, err
	}
	_, err = c.nc.Write(b)
	if cap(b) <= peerKeepBuf {
		c.wbuf = b
	} else {
		c.wbuf = nil
	}
	if err != nil {
		return nil, false, err
	}
	resp, reuse, err = readReply(c.br, req)
	if err != nil {
		return nil, false, err
	}
	// Bytes past the reply belong to no request: the stream is out of
	// step and the next reply read off it would be someone else's.
	return resp, reuse && c.br.Buffered() == 0, nil
}

// appendRequest appends req in wire form — request line, Host, req's
// headers, Content-Length, blank line, body — so one Write sends it.
func appendRequest(b []byte, req *http.Request, host string) ([]byte, error) {
	uri := req.URL.RequestURI()
	if strings.ContainsAny(req.Method, " \r\n") || strings.ContainsAny(uri, " \r\n") {
		return nil, fmt.Errorf("request line %q %q: illegal character", req.Method, uri)
	}
	b = append(b, req.Method...)
	b = append(b, ' ')
	b = append(b, uri...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	for k, vs := range req.Header {
		switch k {
		case "Host", "Content-Length", "Transfer-Encoding", "Connection":
			continue // the transport's own
		}
		for _, v := range vs {
			if strings.ContainsAny(k, ": \r\n") || strings.ContainsAny(v, "\r\n") {
				return nil, fmt.Errorf("header %q: illegal character", k)
			}
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	if req.Body == nil || req.Body == http.NoBody {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			b = append(b, "Content-Length: 0\r\n"...)
		}
		return append(b, "\r\n"...), nil
	}
	body, n := io.Reader(req.Body), req.ContentLength
	if n < 0 {
		data, err := io.ReadAll(body)
		if err != nil {
			return nil, fmt.Errorf("reading request body: %w", err)
		}
		body, n = bytes.NewReader(data), int64(len(data))
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, n, 10)
	b = append(b, "\r\n\r\n"...)
	b = slices.Grow(b, int(n))
	if _, err := io.ReadFull(body, b[len(b):len(b)+int(n)]); err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	return b[:len(b)+int(n)], nil
}

// peerReply is a reply in one allocation: the response and the reader
// over its body.
type peerReply struct {
	resp http.Response
	body replyBody
}

// replyBody reads a reply body that is already in memory. It has no
// WriteTo on purpose: relay's io.Copy must keep taking the http
// server's ReadFrom path (512 sniffed bytes, flush, the rest), which is
// what frames the front door's replies — a body that wrote itself out
// in one Write would change the bytes clients receive.
type replyBody struct {
	b []byte
}

func (r *replyBody) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

func (r *replyBody) Close() error { return nil }

var errReplyFraming = errors.New("malformed reply")

// readReply parses one HTTP/1.x reply off br — status line, headers, a
// Content-Length, chunked or close-delimited body, trailers — consuming
// exactly the reply's bytes. reuse is false when the reply ends the
// connection (Connection: close, HTTP/1.0, close-delimited body). It is
// stricter than net/http wherever a reply is ambiguous (both framings,
// repeated Content-Length, folded header lines): a shard never sends
// those, and a transport that guesses can be made to mis-frame.
func readReply(br *bufio.Reader, req *http.Request) (resp *http.Response, reuse bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return nil, false, err
	}
	// "HTTP/1.x NNN" then the end of the line or " reason".
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') ||
		line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return nil, false, fmt.Errorf("%w: status line %q", errReplyFraming, line)
	}
	code := 0
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return nil, false, fmt.Errorf("%w: status line %q", errReplyFraming, line)
		}
		code = code*10 + int(d-'0')
	}
	if code < 100 {
		return nil, false, fmt.Errorf("%w: status line %q", errReplyFraming, line)
	}
	r := &peerReply{}
	resp = &r.resp
	resp.StatusCode = code
	if string(line[9:]) == "200 OK" {
		resp.Status = "200 OK"
	} else {
		resp.Status = string(line[9:])
	}
	resp.ProtoMajor, resp.ProtoMinor = 1, int(line[7]-'0')
	resp.Proto = "HTTP/1.1"
	if resp.ProtoMinor == 0 {
		resp.Proto = "HTTP/1.0"
	}
	resp.Request = req

	if resp.Header, err = readHeaders(br); err != nil {
		return nil, false, err
	}
	if resp.Header == nil {
		resp.Header = http.Header{}
	}
	length := int64(-1)
	if cl := resp.Header["Content-Length"]; len(cl) == 1 {
		if length, err = parseLength(cl[0], 10); err != nil {
			return nil, false, err
		}
	} else if len(cl) > 1 {
		return nil, false, fmt.Errorf("%w: repeated Content-Length", errReplyFraming)
	}
	chunked := false
	if te, ok := resp.Header["Transfer-Encoding"]; ok {
		if len(te) != 1 || !strings.EqualFold(te[0], "chunked") || resp.ProtoMinor == 0 || length >= 0 {
			return nil, false, fmt.Errorf("%w: Transfer-Encoding %q with Content-Length %d", errReplyFraming, te, length)
		}
		chunked = true
	}
	closing := resp.ProtoMinor == 0
	for _, v := range resp.Header["Connection"] {
		for _, tok := range strings.Split(v, ",") {
			switch tok = strings.TrimSpace(tok); {
			case strings.EqualFold(tok, "close"):
				closing = true
			case strings.EqualFold(tok, "keep-alive") && resp.ProtoMinor == 0:
				closing = false
			}
		}
	}
	// The body is de-chunked here; the header must not claim otherwise.
	delete(resp.Header, "Transfer-Encoding")

	var body []byte
	switch {
	case req.Method == http.MethodHead || code < 200 || code == http.StatusNoContent || code == http.StatusNotModified:
		// no body, whatever the headers say
	case chunked:
		if body, resp.Trailer, err = readChunked(br); err != nil {
			return nil, false, err
		}
	case length >= 0:
		if body, err = appendN(nil, br, length); err != nil {
			return nil, false, err
		}
	default:
		// Delimited by the end of the connection.
		if body, err = io.ReadAll(br); err != nil {
			return nil, false, err
		}
		closing = true
	}
	resp.Close = closing
	resp.ContentLength = int64(len(body))
	r.body.b = body
	resp.Body = &r.body
	return resp, !closing, nil
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

// readHeaders reads header lines up to the blank one into a Header
// keyed by canonical field name; nil when there are none (the usual
// trailer).
func readHeaders(br *bufio.Reader) (http.Header, error) {
	var h http.Header
	// One backing array for the one-element value slices of the first
	// few fields, as net/textproto does.
	var vals []string
	for n := 0; ; n++ {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			return h, nil
		}
		if h == nil {
			h = make(http.Header, 4)
		}
		colon := bytes.IndexByte(line, ':')
		if n == peerMaxHeaders || colon <= 0 || bytes.ContainsAny(line[:colon], " \t") {
			return nil, fmt.Errorf("%w: header line %q", errReplyFraming, line)
		}
		k := headerName(line[:colon])
		v := headerValue(bytes.Trim(line[colon+1:], " \t"))
		if prev, ok := h[k]; ok {
			h[k] = append(prev, v)
			continue
		}
		if len(vals) == cap(vals) {
			vals = make([]string, 0, 4)
		}
		vals = append(vals, v)
		h[k] = vals[len(vals)-1 : len(vals) : len(vals)]
	}
}

// headerName canonicalizes a field name; the names a delaydb shard
// sends cost no allocation.
func headerName(k []byte) string {
	switch string(k) {
	case "Content-Type":
		return "Content-Type"
	case "Content-Length":
		return "Content-Length"
	case "Date":
		return "Date"
	case "Transfer-Encoding":
		return "Transfer-Encoding"
	case "Connection":
		return "Connection"
	}
	return textproto.CanonicalMIMEHeaderKey(string(k))
}

func headerValue(v []byte) string {
	if string(v) == "application/json" {
		return "application/json"
	}
	return string(v)
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
func readChunked(br *bufio.Reader) (body []byte, trailer http.Header, err error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, nil, err
		}
		if semi := bytes.IndexByte(line, ';'); semi >= 0 {
			line = line[:semi] // chunk extension
		}
		size, err := parseLength(string(line), 16)
		if err != nil {
			return nil, nil, err
		}
		if size == 0 {
			break
		}
		if body, err = appendN(body, br, size); err != nil {
			return nil, nil, err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(br, crlf[:]); err != nil {
			return nil, nil, noEOF(err)
		}
		if crlf != [2]byte{'\r', '\n'} {
			return nil, nil, fmt.Errorf("%w: chunk not followed by CRLF", errReplyFraming)
		}
	}
	trailer, err = readHeaders(br)
	return body, trailer, err
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
