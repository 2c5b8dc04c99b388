package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
)

// Chaos is a kill switch on a local shard: while killed, every
// RPC to the node fails at the transport level, exactly as a crashed
// process fails — the router latches the peer down, reads fail over,
// writes quarantine. Revive restores the transport (the shard's state
// survives, as a restarted process's disk does); the router's probe
// and resync machinery take it from there.
type Chaos struct {
	name string
	dead atomic.Bool
}

// Kill severs the node's transport.
func (c *Chaos) Kill() { c.dead.Store(true) }

// Revive restores the node's transport.
func (c *Chaos) Revive() { c.dead.Store(false) }

// chaosTransport fails every round trip while the switch is dead.
type chaosTransport struct {
	inner transport
	c     *Chaos
}

func (t chaosTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if t.c.dead.Load() {
		return reply{}, fmt.Errorf("chaos: node %s is killed", t.c.name)
	}
	return t.inner.roundTrip(ctx, c)
}

// NewChaosNode returns a local shard node (NewLocalNode) with a kill
// switch: every request crosses the killable transport, so a kill is
// indistinguishable from a crashed process on every router path.
func NewChaosNode(name string, h http.Handler) (*Node, *Chaos) {
	c := &Chaos{name: name}
	n := NewLocalNode(name, h)
	n.rt = chaosTransport{inner: n.rt, c: c}
	return n, c
}
