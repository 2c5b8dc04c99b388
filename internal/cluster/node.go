package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"repro/internal/fault"
)

// rpcBodyCap is the byte budget handed to the cluster.rpc torn-write
// failpoint: effectively unbounded, so an uninjected call passes every
// response through whole, while an injected one picks a cut point
// below any real response size.
const rpcBodyCap = 1 << 30

// call is one router→shard request: everything a shard is ever sent.
// A call with a body is a JSON POST; identity is the X-Identity of the
// principal the router resolved for the client (its account, else its
// address), empty on the router's own calls.
type call struct {
	method   string
	path     string // request URI: path, then "?query" if any
	body     []byte
	identity string
}

// reply is a shard's whole answer, body in memory.
type reply struct {
	status      int
	contentType string
	retryAfter  string // a refusal's Retry-After, relayed with it
	body        []byte
}

// transport carries a call to one shard and brings the whole reply
// back. The contract every implementation keeps — the shard transport
// (peerconn.go), the in-process adapter below, a kill switch or a
// test's fault injector around either: c.body is not read after
// roundTrip returns, so the caller may reuse its backing array at once;
// the reply's body is the caller's alone from then on, never read, written
// or reused by the transport (a scatter merges row spans of its legs'
// bodies on the caller's goroutine, until the client's reply is written);
// and ctx ending fails the call promptly with ctx's error.
type transport interface {
	roundTrip(ctx context.Context, c *call) (reply, error)
}

// Node is one delaydb shard behind the router. Local nodes (handlers
// in this process, the test and single-binary cluster mode) and HTTP
// peers (real deployments) differ only in the transport that carries
// the call: the router hands both the same bytes and gets the same
// reply back, so a test against local nodes exercises the request and
// reply a deployment puts on the wire.
type Node struct {
	name string
	// rt carries every RPC to the shard, called from do and nowhere
	// else.
	rt transport

	// inflight is the live request count, reported per peer on
	// /healthz.
	inflight atomic.Int64
	// down latches when a request to the peer fails at the transport
	// level. Routing and the exchange skip down peers entirely. The
	// anti-entropy loop's health probe moves a down peer to resync;
	// only CatchUpPeer (POST /admin/resync) clears both latches.
	down atomic.Bool
	// resync latches when a peer rejoins after missing writes: a probe
	// revival (the peer was down, so fan-out writes skipped it) or a
	// write divergence (the peer answered a write with a different
	// outcome than the one the router acked). A resync peer is back on
	// the write plane — fan-out writes and anti-entropy keep it from
	// falling further behind — but serves NO reads: it is missing
	// acked writes, and an acked write must stay readable. Only
	// CatchUpPeer, which re-copies its partitions from a readable
	// replica first, restores it to the read path.
	resync atomic.Bool
	// latchSeq orders latch episodes: it is stamped from latchClock on
	// every readable→latched transition (and untouched on down→resync,
	// which continues the same episode). Because an acked write that
	// fails on a readable replica quarantines that replica immediately,
	// every readable replica holds every acked write — so when ALL
	// replicas of a partition are latched, the one with the highest
	// latchSeq left the read plane last and is the partition's one
	// complete copy. CatchUpPeer uses this to refuse clearing a stale
	// replica ahead of the authoritative one.
	latchSeq atomic.Int64
}

// latchClock issues latchSeq stamps, ordered across all nodes of the
// process (shared across routers; only relative order within one
// replica group matters).
var latchClock atomic.Int64

// latchDown latches the node down, stamping the start of a new latch
// episode if the node was readable.
func (n *Node) latchDown() {
	if n.readable() {
		n.latchSeq.Store(latchClock.Add(1))
	}
	n.down.Store(true)
}

// latchResync latches the node writes-only, stamping the start of a new
// latch episode if the node was readable. Called on a down node (probe
// revival) it keeps the episode's original stamp: the missed-writes
// window began at the down latch, not at revival.
func (n *Node) latchResync() {
	if n.readable() {
		n.latchSeq.Store(latchClock.Add(1))
	}
	n.resync.Store(true)
}

// NewHTTPNode returns a shard reached over the network at base
// (e.g. "http://10.0.0.3:8080") through the shard transport. A base
// ParsePeerURL rejects still yields a node; its every RPC fails with
// that error.
func NewHTTPNode(name, base string) *Node {
	return &Node{name: name, rt: newPeerTransport(base)}
}

// NewLocalNode returns a shard served by an in-process handler —
// cmd/delaydb's -cluster mode and every cluster test.
func NewLocalNode(name string, h http.Handler) *Node {
	return &Node{name: name, rt: handlerTransport{h: h, host: name}}
}

// Name returns the node's routing name.
func (n *Node) Name() string { return n.name }

// Down reports whether the peer is latched down.
func (n *Node) Down() bool { return n.down.Load() }

// Resync reports whether the peer is latched writes-only pending
// CatchUpPeer.
func (n *Node) Resync() bool { return n.resync.Load() }

// readable reports whether the peer may serve reads: reachable and not
// missing acked writes.
func (n *Node) readable() bool { return !n.down.Load() && !n.resync.Load() }

// InFlight returns the live request count against this node.
func (n *Node) InFlight() int64 { return n.inflight.Load() }

// peerStats reports the shard transport's dial count and idle pool
// size; both are zero for an in-process node.
func (n *Node) peerStats() (dials int64, idle int) {
	if t, ok := n.rt.(*peerTransport); ok {
		return t.dials.Load(), t.idleConns()
	}
	return 0, 0
}

// do sends c to the node — the one place a transport is called: the
// cluster.rpc failpoint, the in-flight count, one round trip. An error
// rule drops the call before the wire, indistinguishable from a refused
// connection; a torn rule delivers it and cuts the reply body short, so
// the status survives and the caller's decoder hits the end early.
// What a failure means for the node is decided one level up
// (Router.rpc).
func (n *Node) do(ctx context.Context, c *call) (reply, error) {
	cut := -1
	if fault.Enabled() {
		if k, err := fault.CheckWrite(fault.ClusterRPC, rpcBodyCap); err != nil {
			if k <= 0 {
				return reply{}, err
			}
			cut = k
		}
	}
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	rep, err := n.rt.roundTrip(ctx, c)
	if err == nil && cut >= 0 && cut < len(rep.body) {
		rep.body = rep.body[:cut]
	}
	return rep, err
}

// handlerTransport is the in-process adapter: it turns a call into the
// one *http.Request this package builds and the handler's response into
// a reply.
type handlerTransport struct {
	h    http.Handler
	host string
}

func (t handlerTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if err := ctx.Err(); err != nil {
		return reply{}, err
	}
	if _, timed := ctx.Deadline(); !timed {
		// The handler watches ctx itself; what it wrote on the way out
		// of a cancelled call is not the shard's answer.
		rep := t.serve(ctx, c)
		return rep, ctx.Err()
	}
	// A deadline means the caller may abandon this call while the
	// handler still runs (a real transport would sever the connection);
	// serve it on a goroutine so the timeout can fire. The handler may
	// then read its request after roundTrip has returned, so it reads a
	// copy: c and c.body go back to the caller when roundTrip returns.
	own := *c
	own.body = bytes.Clone(c.body)
	done := make(chan reply, 1)
	go func() { done <- t.serve(ctx, &own) }()
	select {
	case rep := <-done:
		return rep, nil
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}
}

// serve runs the handler on the calling goroutine. The request looks
// the way it would had it crossed the shard transport.
func (t handlerTransport) serve(ctx context.Context, c *call) reply {
	path, query, _ := strings.Cut(c.path, "?")
	req := (&http.Request{
		Method:     c.method,
		URL:        &url.URL{Scheme: "http", Host: t.host, Path: path, RawQuery: query},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 3),
		Body:       http.NoBody,
		Host:       t.host,
	}).WithContext(ctx)
	if c.body != nil {
		req.Body = io.NopCloser(bytes.NewReader(c.body))
		req.ContentLength = int64(len(c.body))
		req.Header["Content-Type"] = []string{"application/json"}
	}
	if c.identity != "" {
		req.Header["X-Identity"] = []string{c.identity}
	}
	rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return reply{status: rec.code, contentType: rec.header.Get("Content-Type"), retryAfter: rec.header.Get("Retry-After"), body: rec.body.Bytes()}
}

// recordedResponse is a minimal ResponseWriter capturing status,
// headers, and body for handlerTransport.
type recordedResponse struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (r *recordedResponse) Header() http.Header { return r.header }

func (r *recordedResponse) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *recordedResponse) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}
