package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// rpcBodyCap is the byte budget handed to the cluster.rpc torn-write
// failpoint: effectively unbounded, so an uninjected call passes every
// response through whole, while an injected one picks a cut point
// below any real response size.
const rpcBodyCap = 1 << 30

// call is one router→shard request: everything a shard is ever sent.
// A call with a body is a JSON POST; identity is the X-Identity the
// shard charges — the principal the router resolved for the client (its
// account, else its address), or InitIdentity for ExecScript — and is
// empty on the admin plane's calls, which no shard charges or holds.
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
// (peerconn.go), a kill switch or a test's fault injector around it:
// c.body is not read after roundTrip returns, so the caller may reuse
// its backing array at once; the reply's body is the caller's alone
// from then on, never read, written or reused by the transport (a
// scatter merges row spans of its legs' bodies on the caller's
// goroutine, until the client's reply is written); and ctx ending fails
// the call promptly with ctx's error.
type transport interface {
	roundTrip(ctx context.Context, c *call) (reply, error)
}

// Node is one delaydb shard behind the router, reached over the shard
// transport: a networked peer (NewHTTPNode, a real deployment) or a
// shard this process serves on a loopback listener (NewLocalNode, the
// single-binary -cluster mode and the tests). Both cross a socket, so a
// test against local nodes sends the bytes a deployment puts on the
// wire, through the same code.
type Node struct {
	name string
	// rt carries every RPC to the shard, called from do and nowhere
	// else: pt, or a kill switch or a test's fault injector around it.
	rt transport
	// pt is the node's shard transport, whose books peerStats reads
	// whatever wraps it in rt.
	pt *peerTransport
	// srv serves a local node's handler; stop cancels the context its
	// requests run under. Both nil for a networked peer.
	srv  *http.Server
	stop context.CancelFunc

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
	return nodeOver(name, newPeerTransport(base))
}

// nodeOver returns a node whose every RPC pt carries.
func nodeOver(name string, pt *peerTransport) *Node {
	return &Node{name: name, rt: pt, pt: pt}
}

// NewLocalNode serves h on a fresh 127.0.0.1 listener, with
// cmd/delaydb's default http.Server settings, and returns the shard
// behind it on the shard transport — cmd/delaydb's -cluster mode and
// every cluster test. Close stops the server. A listener that cannot be
// opened still yields a node; its every RPC fails with that error.
func NewLocalNode(name string, h http.Handler) *Node {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nodeOver(name, &peerTransport{bad: fmt.Errorf("shard %s: %w", name, err)})
	}
	n := NewHTTPNode(name, "http://"+ln.Addr().String())
	base, stop := context.WithCancel(context.Background())
	// -readheadertimeout and -idletimeout's defaults: the shard
	// transport's idle cut-off is half the latter.
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * peerIdleCutoff,
		BaseContext: func(net.Listener) context.Context { return base }}
	n.stop = stop
	go n.srv.Serve(ln) //nolint:errcheck // ErrServerClosed once Close runs
	return n
}

// Close stops a local node's server and closes the router's idle
// connections to it; for a networked peer it does nothing. It cancels
// the requests still running, so a shard sleeping a charged delay
// returns at once, and returns only when none of its handlers runs: an
// owner calls it before closing the shard's database.
func (n *Node) Close() error {
	if n.srv == nil {
		return nil
	}
	n.stop()
	err := n.srv.Shutdown(context.Background())
	n.pt.flush()
	return err
}

// Name returns the node's routing name.
func (n *Node) Name() string { return n.name }

// Addr returns the host:port the node's transport dials; empty when
// the node has none.
func (n *Node) Addr() string { return n.pt.addr }

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
// size.
func (n *Node) peerStats() (dials int64, idle int) {
	return n.pt.dials.Load(), n.pt.idleConns()
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
