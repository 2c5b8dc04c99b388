package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync/atomic"

	"repro/internal/fault"
)

// rpcBodyCap is the byte budget handed to the cluster.rpc torn-write
// failpoint: effectively unbounded, so an uninjected call passes every
// response through whole, while an injected one picks a cut point
// below any real response size.
const rpcBodyCap = 1 << 30

// Node is one delaydb shard behind the router. Local nodes (handlers
// in this process, the test and single-binary cluster mode) and HTTP
// peers (real deployments) differ only in the RoundTripper that carries
// the request, so every byte the router moves crosses the same
// serialization boundary in both modes — a test against local nodes
// exercises the exact wire surface a deployment uses.
type Node struct {
	name string
	base string
	// rt carries every RPC to the shard: the shard transport
	// (peerconn.go) for an HTTP peer, the handler adapter for an
	// in-process one, either possibly wrapped by a kill switch or a
	// test's fault injector. Every one of them returns a reply whose
	// body is already in memory, so a caller may drop the request's
	// context the moment RoundTrip returns.
	rt http.RoundTripper
	// inProcess marks a node whose rt calls the shard's handler on the
	// calling goroutine: only there may forwardScratch redirect the
	// client's own request at the shard instead of building a second one.
	inProcess bool

	// inflight is the live request count, reported per peer on
	// /healthz.
	inflight atomic.Int64
	// down latches when a request to the peer fails at the transport
	// level. Routing and the exchange skip down peers entirely. The
	// anti-entropy loop's health probe moves a down peer to resync;
	// only POST /admin/peer-up clears both latches.
	down atomic.Bool
	// resync latches when a peer rejoins after missing writes: a probe
	// revival (the peer was down, so fan-out writes skipped it) or a
	// write divergence (the peer answered a write with a different
	// outcome than the one the router acked). A resync peer is back on
	// the write plane — fan-out writes and anti-entropy keep it from
	// falling further behind — but serves NO reads: it is missing
	// acked writes, and an acked write must stay readable. Only an
	// operator's POST /admin/peer-up (asserting the replica has been
	// resynced from a healthy peer) restores it to the read path.
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
	return &Node{name: name, base: base, rt: newPeerTransport(base)}
}

// NewLocalNode returns a shard served by an in-process handler —
// cmd/delaydb's -cluster mode and every cluster test. The handler is
// invoked through a RoundTripper, not called directly, so request and
// response still pass through http.Request/http.Response encoding.
func NewLocalNode(name string, h http.Handler) *Node {
	return &Node{name: name, base: "http://" + name, rt: handlerTransport{h: h}, inProcess: true}
}

// Name returns the node's routing name.
func (n *Node) Name() string { return n.name }

// Down reports whether the peer is latched down.
func (n *Node) Down() bool { return n.down.Load() }

// Resync reports whether the peer is latched writes-only pending an
// operator resync.
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

// do sends req to the node — the one entry point of every router→shard
// RPC: the cluster.rpc failpoint, the in-flight count, one round trip.
// ctx is the caller's own context (req's is the same one, or its
// -shard-timeout child). A transport-level failure latches the node
// down unless ctx is already done: a caller that gave up — a scatter
// cancelling its laggards once LIMIT is satisfied, a client that hung
// up — made the call fail itself, and a healthy shard must not be
// marked dead for obeying. HTTP error statuses never latch (the peer
// answered — it is alive, just unhappy).
func (n *Node) do(ctx context.Context, req *http.Request) (*http.Response, error) {
	truncate := -1
	if fault.Enabled() {
		if k, ferr := fault.CheckWrite(fault.ClusterRPC, rpcBodyCap); ferr != nil {
			if k <= 0 {
				// Dropped before the wire: indistinguishable from a
				// refused connection, so it latches the peer like one.
				if req.Body != nil {
					req.Body.Close()
				}
				return nil, n.failed(ctx, ferr)
			}
			// Delivered, but the response comes back cut short: the
			// status line survives, the body truncates mid-stream, and
			// the caller's decoder hits unexpected EOF. No down latch —
			// the peer did answer.
			truncate = k
		}
	}
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	resp, err := n.rt.RoundTrip(req)
	if err != nil {
		return nil, n.failed(ctx, err)
	}
	if truncate >= 0 {
		resp.Body = &truncatedBody{r: io.LimitReader(resp.Body, int64(truncate)), c: resp.Body}
		resp.ContentLength = -1
	}
	return resp, nil
}

// failed applies do's latch rule to a transport-level error.
func (n *Node) failed(ctx context.Context, err error) error {
	if ctx.Err() == nil {
		n.latchDown()
	}
	return err
}

// truncatedBody delivers a prefix of the real body (the cluster.rpc
// torn failure) while closing the whole underlying stream.
type truncatedBody struct {
	r io.Reader
	c io.Closer
}

func (t *truncatedBody) Read(p []byte) (int, error) { return t.r.Read(p) }
func (t *truncatedBody) Close() error               { return t.c.Close() }

// handlerTransport adapts an http.Handler into an http.RoundTripper by
// recording the handler's response into a real http.Response.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, hasDeadline := req.Context().Deadline(); hasDeadline {
		// A deadline means the caller may abandon this call while the
		// handler still runs (a real transport would sever the
		// connection); serve it on a goroutine so the timeout can fire.
		// The goroutine owns the request body — it closes it when the
		// handler returns, whether or not anyone is still waiting.
		done := make(chan *http.Response, 1)
		go func() {
			rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
			t.h.ServeHTTP(rec, req)
			if req.Body != nil {
				req.Body.Close()
			}
			done <- rec.response(req)
		}()
		select {
		case resp := <-done:
			return resp, nil
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	// Real transports guarantee exactly one Close of the request body;
	// pooled scratch bodies rely on that to return to their pool.
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.response(req), nil
}

func (r *recordedResponse) response(req *http.Request) *http.Response {
	return &http.Response{
		Status:        http.StatusText(r.code),
		StatusCode:    r.code,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        r.header,
		Body:          io.NopCloser(bytes.NewReader(r.body.Bytes())),
		ContentLength: int64(r.body.Len()),
		Request:       req,
	}
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

// ReadFrom spares io.Copy its 32 KiB buffer when a relayed body has no
// WriteTo of its own (replyBody).
func (r *recordedResponse) ReadFrom(src io.Reader) (int64, error) {
	r.wrote = true
	return r.body.ReadFrom(src)
}
