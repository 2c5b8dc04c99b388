package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// serveLoopback serves h on a loopback listener and returns its base
// URL: the real socket NewHTTPNode dials.
func serveLoopback(t testing.TB, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// scriptedPeer is a raw TCP server that answers every request on a
// connection with reply(path): the test writes the reply's bytes
// itself, so framings net/http's server never produces are reachable.
func scriptedPeer(t *testing.T, reply func(path string) string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					out := reply(req.URL.Path)
					if _, err := io.WriteString(nc, out); err != nil || strings.Contains(out, "Connection: close") {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// get runs one GET through the transport.
func get(t *testing.T, pt *peerTransport, path string) reply {
	t.Helper()
	rep, err := pt.roundTrip(context.Background(), &call{method: http.MethodGet, path: path})
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return rep
}

func TestPeerReplyFramings(t *testing.T) {
	pt := newPeerTransport(scriptedPeer(t, func(path string) string {
		switch path {
		case "/length":
			return "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello"
		case "/chunked":
			return "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n" +
				"3\r\nhel\r\n2;ext=1\r\nlo\r\n0\r\nX-Sum: 42\r\n\r\n"
		case "/empty":
			return "HTTP/1.1 204 No Content\r\n\r\n"
		case "/error":
			return "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\nbusy"
		case "/close":
			return "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye"
		case "/eof":
			return "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil the end"
		case "/both":
			return "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
		}
		return "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
	}))

	// Keep-alive framings: every one of them leaves the connection in
	// step for the next, so the whole sequence costs one dial.
	for _, c := range []struct {
		path, body string
		code       int
	}{
		{"/length", "hello", 200},
		{"/chunked", "hello", 200},
		{"/empty", "", 204},
		{"/error", "busy", 503},
		{"/length", "hello", 200},
	} {
		rep := get(t, pt, c.path)
		if rep.status != c.code || string(rep.body) != c.body {
			t.Fatalf("%s: HTTP %d %q, want %d %q", c.path, rep.status, rep.body, c.code, c.body)
		}
		if c.path == "/length" && rep.contentType != "application/json" {
			t.Errorf("Content-Type = %q", rep.contentType)
		}
	}
	if d := pt.dials.Load(); d != 1 {
		t.Fatalf("five keep-alive replies took %d dials, want 1", d)
	}

	// Connection: close and a close-delimited body end the connection:
	// it is not pooled, and the next call dials.
	for i, path := range []string{"/close", "/eof"} {
		if body := get(t, pt, path).body; string(body) != map[string]string{"/close": "bye", "/eof": "until the end"}[path] {
			t.Fatalf("%s: body %q", path, body)
		}
		if n := pt.idleConns(); n != 0 {
			t.Fatalf("%s: %d connections pooled after the peer said close", path, n)
		}
		get(t, pt, "/length")
		if d, want := pt.dials.Load(), int64(2+i); d != want {
			t.Fatalf("after %s: %d dials, want %d", path, d, want)
		}
	}

	// A reply framed both ways is refused, not guessed at.
	if _, err := pt.roundTrip(context.Background(), &call{method: http.MethodGet, path: "/both"}); !errors.Is(err, errReplyFraming) {
		t.Fatalf("reply with Content-Length and chunked: err = %v, want errReplyFraming", err)
	}
}

// TestPeerMigratePage moves a 1 MiB body in both directions, the size of
// a /admin/migrate page, with the reply framed each way.
func TestPeerMigratePage(t *testing.T) {
	page := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	base := serveLoopback(t, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		got, err := io.ReadAll(req.Body)
		if err != nil || !bytes.Equal(got, page) {
			http.Error(w, "request page arrived damaged", http.StatusBadRequest)
			return
		}
		if req.URL.Path == "/length" {
			w.Header().Set("Content-Length", fmt.Sprint(len(page)))
		}
		w.Write(page)
	}))
	pt := newPeerTransport(base)
	for _, path := range []string{"/length", "/chunked", "/length"} {
		rep, err := pt.roundTrip(context.Background(), &call{method: http.MethodPost, path: path, body: page})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rep.status != http.StatusOK || !bytes.Equal(rep.body, page) {
			t.Fatalf("%s: HTTP %d, %d bytes back, want the %d sent", path, rep.status, len(rep.body), len(page))
		}
	}
	if d := pt.dials.Load(); d != 1 {
		t.Fatalf("three pages took %d dials, want 1", d)
	}
	// The page-sized request buffer does not stay with the connection.
	if c := pt.idle[0]; cap(c.wbuf) > peerKeepBuf {
		t.Fatalf("pooled connection kept a %d-byte request buffer", cap(c.wbuf))
	}
}

func TestPeerRequestRejectsInjection(t *testing.T) {
	for _, c := range []call{
		{method: http.MethodPost, path: "/query", identity: "alice\r\nX-Admin: 1"},
		{method: http.MethodPost, path: "/query", identity: "10.0.0.1\nX-Admin: 1"},
		{method: http.MethodGet, path: "/stats HTTP/1.1\r\nX-Admin: 1"},
		{method: "GET /admin/schema", path: "/stats"},
	} {
		if b, err := appendRequest(nil, &c, "peer"); err == nil {
			t.Errorf("call %+v rendered as %q", c, b)
		}
	}
}

// TestPeerIdleCutoff: the shard closes idle connections on its own
// schedule; one idle past the cut-off is dropped at checkout and the
// call goes out on a fresh connection instead of failing.
func TestPeerIdleCutoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	pt := newPeerTransport(srv.URL)
	get(t, pt, "/")
	srv.CloseClientConnections()
	pt.idle[0].idleSince = time.Now().Add(-2 * peerIdleCutoff)
	if body := get(t, pt, "/").body; string(body) != "ok" {
		t.Fatalf("call after the cut-off: body %q", body)
	}
	if d, n := pt.dials.Load(), pt.idleConns(); d != 2 || n != 1 {
		t.Fatalf("dials = %d, idle = %d; want the stale connection replaced (2, 1)", d, n)
	}
}

// loopbackRouter fronts one loopback shard per handler with an R=1
// router over the shard transport.
func loopbackRouter(t *testing.T, cfg Config, shards ...http.Handler) *Router {
	t.Helper()
	nodes := make([]*Node, len(shards))
	for i, h := range shards {
		nodes[i] = NewHTTPNode(fmt.Sprintf("shard-%d", i), serveLoopback(t, h))
	}
	r, err := NewRouter(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPeerMidReplyKill: a shard dying halfway through a reply is a
// transport error — the call fails, the node latches down, and every
// idle connection of the node goes with it.
func TestPeerMidReplyKill(t *testing.T) {
	release := make(chan struct{})
	r := loopbackRouter(t, Config{}, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/park":
			<-release
		case "/die":
			nc, bw, _ := w.(http.Hijacker).Hijack()
			bw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhalf a rep")
			bw.Flush()
			nc.Close()
		}
	}))
	n := r.nodes[0]
	// Two overlapping calls leave two idle connections behind.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.do(context.Background(), &call{method: http.MethodGet, path: "/park"}); err != nil {
				t.Error(err)
			}
		}()
	}
	for n.InFlight() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if _, idle := n.peerStats(); idle != 2 {
		t.Fatalf("%d idle connections after two overlapping calls, want 2", idle)
	}

	if _, err := r.rpc(context.Background(), n, &call{method: http.MethodGet, path: "/die"}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reply cut short: err = %v, want unexpected EOF", err)
	}
	if !n.Down() {
		t.Error("node not latched down by a reply cut short")
	}
	if _, idle := n.peerStats(); idle != 0 {
		t.Errorf("%d idle connections survived a transport error, want 0", idle)
	}
	if v := r.peerErrors.Value(); v != 1 {
		t.Errorf("cluster_peer_errors_total = %d, want 1", v)
	}
}

// TestPeerCancel: cancelling the caller's context unblocks a waiting
// round trip at once, marks nothing down (the caller gave up, the shard
// did not fail) and retires the connection.
func TestPeerCancel(t *testing.T) {
	entered := make(chan struct{}, 1)
	r := loopbackRouter(t, Config{}, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/park" {
			entered <- struct{}{}
			<-req.Context().Done()
		}
	}))
	n := r.nodes[0]
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	start := time.Now()
	_, err := r.rpc(ctx, n, &call{method: http.MethodGet, path: "/park"})
	<-ctx.Done()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
	}
	// Measured from the cancel would be tighter still; from the start of
	// the call it already includes the dial and the request.
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("cancelled call returned after %v, want under 50ms", d)
	}
	if n.Down() || r.peerErrors.Value() != 0 {
		t.Error("a call its own caller cancelled was booked as a peer failure")
	}
	dials, idle := n.peerStats()
	if idle != 0 {
		t.Fatalf("cancelled connection went back to the pool")
	}
	if _, err := r.rpc(context.Background(), n, &call{method: http.MethodGet, path: "/ok"}); err != nil {
		t.Fatal(err)
	}
	if d, _ := n.peerStats(); d != dials+1 {
		t.Errorf("call after a cancel: %d dials, want %d (a fresh connection)", d, dials+1)
	}
}

// TestPeerShardTimeout: -shard-timeout reaches a blocked round trip
// through the connection deadline; unlike a cancel it is the shard's
// failure — timeout counter, peer error, down latch.
func TestPeerShardTimeout(t *testing.T) {
	r := loopbackRouter(t, Config{ShardTimeout: 30 * time.Millisecond},
		http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/query" {
				// The server watches for the router hanging up only
				// once the request body has been read.
				io.Copy(io.Discard, req.Body)
				<-req.Context().Done()
				return
			}
			server.WriteJSON(w, http.StatusOK, struct{}{}) // the lazy /admin/schema fetch
		}))
	start := time.Now()
	resp, body := query(t, r.Handler(), "x", `SELECT * FROM items WHERE id = 1`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query against a hung shard: HTTP %d: %s", resp.StatusCode, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("timed-out query took %v", d)
	}
	if v := r.rpcTimeouts.Value(); v != 1 {
		t.Errorf("cluster_rpc_timeouts_total = %d, want 1", v)
	}
	if !r.nodes[0].Down() {
		t.Error("a shard past -shard-timeout was not latched down")
	}
}

// TestPeerCeilingSparesAHeldReply: a shard holds a principal's reply
// for the charged delay, however long that is, so the transport's
// ceiling must not cut the statement or latch the shard; it bounds the
// router's own calls, which no shard holds, and one of those past it is
// still the shard's failure.
func TestPeerCeilingSparesAHeldReply(t *testing.T) {
	const ceiling = 50 * time.Millisecond
	shard, _ := newShard(t, 100, nil)
	var holdAdmin atomic.Bool
	n := localNode(t, "shard-0", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("X-Identity") == "patient" || (req.URL.Path == "/healthz" && holdAdmin.Load()) {
			time.Sleep(4 * ceiling) // a charged delay
		}
		shard.ServeHTTP(w, req)
	}))
	n.pt.ceiling = ceiling
	r, err := NewRouter([]*Node{n}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ExecScript(insertItems(1, 3)); err != nil {
		t.Fatal(err)
	}
	resp, body := query(t, r.Handler(), "patient", `SELECT v FROM items WHERE id = 2`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"v2"`) {
		t.Fatalf("a reply held past the ceiling: HTTP %d: %s", resp.StatusCode, body)
	}
	if n.Down() || r.peerErrors.Value() != 0 {
		t.Fatalf("a reply held past the ceiling latched the shard: down=%v, cluster_peer_errors_total=%d",
			n.Down(), r.peerErrors.Value())
	}
	holdAdmin.Store(true)
	if err := r.rpcJSON(context.Background(), n, http.MethodGet, "/healthz", nil, nil); err == nil {
		t.Fatal("an admin call held past the ceiling succeeded")
	}
	if !n.Down() || r.peerErrors.Value() != 1 {
		t.Errorf("an admin call past the ceiling: down=%v, cluster_peer_errors_total=%d, want a latched shard and 1",
			n.Down(), r.peerErrors.Value())
	}
}

// TestPeerConcurrentCallers: 64 callers share two nodes' pools; every
// reply must be the answer to its own request.
func TestPeerConcurrentCallers(t *testing.T) {
	echo := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body) // whole, first: an HTTP/1 server stops reading once it replies
		w.Write(body)
	})
	r := loopbackRouter(t, Config{}, echo, echo)
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := r.nodes[(g+i)%2]
				// Sizes straddle the 2 KiB at which the server turns to chunking.
				want := fmt.Sprintf("caller %d call %d %s", g, i, strings.Repeat("x", (g*50+i)%4096))
				rep, err := n.do(context.Background(), &call{method: http.MethodPost, path: "/echo", body: []byte(want)})
				if err != nil {
					t.Error(err)
					return
				}
				if got := rep.body; string(got) != want {
					t.Errorf("caller %d call %d: got another request's reply (%d bytes, want %d)", g, i, len(got), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, n := range r.nodes {
		dials, idle := n.peerStats()
		if dials > 64 || idle > peerMaxIdle || int64(idle) > dials {
			t.Errorf("%s: %d dials, %d idle for 64 callers", n.name, dials, idle)
		}
	}
}

// TestPeerHTTPS: an https peer is the same transport dialling through
// crypto/tls.
func TestPeerHTTPS(t *testing.T) {
	srv := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "secure")
	}))
	defer srv.Close()
	pt := newPeerTransport(srv.URL)
	pt.tls.RootCAs = x509.NewCertPool()
	pt.tls.RootCAs.AddCert(srv.Certificate())
	for i := 0; i < 2; i++ {
		if body := get(t, pt, "/").body; string(body) != "secure" {
			t.Fatalf("body %q", body)
		}
	}
	if d := pt.dials.Load(); d != 1 {
		t.Fatalf("two calls took %d handshakes, want 1", d)
	}
}

func TestParsePeerURL(t *testing.T) {
	for base, ok := range map[string]bool{
		"http://10.0.0.1:8080":  true,
		"https://shard.example": true,
		"10.0.0.1:8080":         false, // no scheme
		"localhost:8080":        false, // "localhost" parses as the scheme
		"ftp://10.0.0.1":        false,
		"http://":               false,
		"http://:8080":          false,
	} {
		if _, err := ParsePeerURL(base); (err == nil) != ok {
			t.Errorf("ParsePeerURL(%q): err = %v, want ok=%v", base, err, ok)
		}
	}
	// A node over a rejected base fails its calls with that error
	// instead of dialling somewhere.
	n := NewHTTPNode("bad", "10.0.0.1:8080")
	if _, err := n.do(context.Background(), &call{method: http.MethodGet, path: "/healthz"}); err == nil || !strings.Contains(err.Error(), "peer URL") {
		t.Errorf("call through a bad base: err = %v", err)
	}
}

// TestSteadyStateDialsNothing is the regression test for the re-dialling
// hop: once every shard has a connection, a mixed statement stream —
// point reads, R=2 writes, scatters, and ordered range scans whose
// replies are large enough for the shard to chunk them — must not open
// another one. With net/http's client under a json.Decoder, every
// chunked reply cost a connection.
func TestSteadyStateDialsNothing(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Config: benchConfig(64, 2)})
	benchLoadItems(t, c.Router, 400) // 180-byte values: 20 rows pass 2 KiB
	metric := func(name string) float64 {
		_, body := do(t, c.Handler, http.MethodGet, "/metrics", "", "")
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		v, ok := m[name].(float64)
		if !ok {
			t.Fatalf("/metrics has no %s", name)
		}
		return v
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			a := 1 + (i*37)%300
			var sql string
			switch i % 4 {
			case 0:
				sql = fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, a)
			case 1:
				sql = fmt.Sprintf(`UPDATE items SET v = 'w%d' WHERE id = %d`, i, 351+i%50) // rows no range scan returns
			case 2:
				sql = fmt.Sprintf(`SELECT * FROM items WHERE id BETWEEN %d AND %d ORDER BY id LIMIT 20`, a, a+99)
			case 3:
				sql = `SELECT COUNT(*) FROM items`
			}
			resp, body := query(t, c.Handler, "steady", sql)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", sql, resp.StatusCode, body)
			}
			if i%4 == 2 && len(body) < 2500 {
				t.Fatalf("range scan reply is %d bytes; too small for the shards to have chunked theirs", len(body))
			}
		}
	}
	run(200)
	warm := metric("cluster_peer_dials_total")
	if warm < 4 {
		t.Fatalf("%v dials after warm-up; the statements are not crossing the sockets", warm)
	}
	run(2000)
	if now := metric("cluster_peer_dials_total"); now != warm {
		t.Errorf("2,000 steady-state statements dialled %v times; want 0", now-warm)
	}
	if idle := metric("cluster_peer_idle_conns"); idle < 4 {
		t.Errorf("cluster_peer_idle_conns = %v with 4 shards warm", idle)
	}
}

// FuzzPeerReply holds the reply parser to three things on any bytes: it
// does not panic; a reply it accepts parses the same, to the same last
// byte, when nothing follows it (so it read nothing past the reply); and
// where net/http's ReadResponse accepts the same bytes, the two agree on
// status, Content-Type, body and where the reply ends.
func FuzzPeerReply(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5;x=y\r\npedia\r\n0\r\nX-T: 1\r\n\r\nNEXT",
		"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\n\r\nbusy",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 1\r\n\r\nxHTTP/1.1",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 3\n\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Length: 999999999999999\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n",
	} {
		f.Add([]byte(s))
	}
	get, _ := http.NewRequest(http.MethodGet, "http://peer/", nil)
	f.Fuzz(func(t *testing.T, in []byte) {
		src := bytes.NewReader(in)
		br := bufio.NewReaderSize(src, peerReadBuf)
		rep, reuse, err := readReply(br, http.MethodGet)
		if err != nil {
			return
		}
		end := len(in) - src.Len() - br.Buffered()

		again, reuse2, err := readReply(bufio.NewReaderSize(bytes.NewReader(in[:end]), peerReadBuf), http.MethodGet)
		if err != nil {
			t.Fatalf("reply accepted with %d bytes after it, refused alone: %v", len(in)-end, err)
		}
		if again.status != rep.status || !bytes.Equal(again.body, rep.body) || reuse2 != reuse {
			t.Fatalf("reply parses differently without the bytes after it")
		}

		gsrc := bytes.NewReader(in)
		gbr := bufio.NewReaderSize(gsrc, peerReadBuf)
		want, err := http.ReadResponse(gbr, get)
		if err != nil {
			return
		}
		wantBody, err := io.ReadAll(want.Body)
		if err != nil {
			return
		}
		if rep.status != want.StatusCode {
			t.Fatalf("status %d, net/http reads %d", rep.status, want.StatusCode)
		}
		if w := want.Header.Get("Content-Type"); rep.contentType != w {
			t.Fatalf("Content-Type %q, net/http reads %q", rep.contentType, w)
		}
		if !bytes.Equal(rep.body, wantBody) {
			t.Fatalf("body %q, net/http reads %q", rep.body, wantBody)
		}
		if gend := len(in) - gsrc.Len() - gbr.Buffered(); reuse && gend != end {
			t.Fatalf("reply ends at byte %d, net/http ends it at %d", end, gend)
		}
	})
}
