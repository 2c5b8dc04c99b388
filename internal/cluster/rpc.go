package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/fault"
)

// This file is the one way the router calls a shard and hands its
// answer on: rpc (one call, and the books on its failure), rpcJSON (the
// admin plane's typed calls over it), fan (many calls at once) and relay
// (a reply to the client, verbatim). Below them sits Node.do and the
// transport seam (node.go); nothing above them touches a transport.

// rpc runs one call against n: the one entry point of every
// router→shard RPC, query plane and admin plane, under -shard-timeout
// when there is one. ctx is the caller's own context. A transport-level
// failure latches the node down and moves the latch gauges, unless ctx
// is already done: a caller that gave up — a scatter cancelling its
// laggards once LIMIT is satisfied, a client that hung up — made the
// call fail itself, and a healthy shard must not be marked dead for
// obeying. Such a failure also counts as a peer error (and a timeout,
// if -shard-timeout is what ended it) unless the node was latched down
// before the call: the exchange's probe of a dead peer finds out
// nothing new. HTTP error statuses are replies, not failures (the peer
// answered — it is alive, just unhappy).
func (r *Router) rpc(ctx context.Context, n *Node, c *call) (reply, error) {
	rctx := ctx
	if d := r.cfg.ShardTimeout; d > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, d)
		defer cancel() // the reply is whole when do returns
	}
	wasDown := n.down.Load()
	rep, err := n.do(rctx, c)
	if err != nil && ctx.Err() == nil {
		n.latchDown()
		r.syncPeerDown()
		if !wasDown {
			r.peerErrors.Inc()
			if rctx.Err() != nil {
				r.rpcTimeouts.Inc()
			}
		}
	}
	return rep, err
}

// statusError is a shard's non-200 reply to an admin-plane call.
type statusError struct {
	node *Node
	c    *call
	rep  reply
}

func (e *statusError) Error() string {
	return fmt.Sprintf("shard %s: %s %s: HTTP %d: %s", e.node.name, e.c.method, e.c.path,
		e.rep.status, bytes.TrimSpace(e.rep.body[:min(len(e.rep.body), 512)]))
}

// rpcJSON runs one admin-plane call — schema, migrate, sketches,
// suspects, quote, the healthz probe: in (nil for a GET) is the JSON
// body, a 200's body decodes into out (nil to ignore it). Any other
// status is a *statusError carrying the reply.
func (r *Router) rpcJSON(ctx context.Context, n *Node, method, path string, in, out any) error {
	c := &call{method: method, path: path}
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		c.body = body
	}
	rep, err := r.rpc(ctx, n, c)
	if err != nil {
		return fmt.Errorf("shard %s: %s %s: %w", n.name, method, path, err)
	}
	if rep.status != http.StatusOK {
		return &statusError{node: n, c: c, rep: rep}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(rep.body, out); err != nil {
		return fmt.Errorf("shard %s: decoding %s reply: %w", n.name, path, err)
	}
	return nil
}

// fanLeg is one target's outcome in a fan-out.
type fanLeg struct {
	rep reply
	err error
}

// fan sends callFor(slot) to targets[slot], every slot at once: the one
// fan-out, under every write (applyWrite) and every scatter read
// alike. Each leg passes the cluster.fanout failpoint
// (a dropped leg never reaches the shard) and then Router.rpc, and
// hands its outcome to each as soon as it has one — from the leg's own
// goroutine, so each guards whatever it shares, and a reader can count
// rows as they arrive and cancel ctx to call the laggards off. The last
// leg runs on the calling goroutine: an R=2 write costs one goroutine
// hand-off, not two. fan returns when every leg has, so a body the
// calls share is the caller's again.
func (r *Router) fan(ctx context.Context, targets []int, callFor func(slot int) *call, each func(slot int, leg fanLeg)) {
	leg := func(slot int) {
		var out fanLeg
		if out.err = fault.Check(fault.ClusterFanout); out.err == nil {
			out.rep, out.err = r.rpc(ctx, r.nodes[targets[slot]], callFor(slot))
		}
		each(slot, out)
	}
	last := len(targets) - 1
	var wg sync.WaitGroup
	// Deferred, so a panic in the caller's own leg still waits for the
	// others before it unwinds into the handler that owns the body.
	defer wg.Wait()
	wg.Add(last)
	for slot := 0; slot < last; slot++ {
		go func() {
			defer wg.Done()
			leg(slot)
		}()
	}
	leg(last)
}

// bodyReader feeds a reply body to a ResponseWriter's ReadFrom.
type bodyReader struct {
	b []byte
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// relay copies a shard's reply to the client verbatim. The http
// server's ReadFrom (512 sniffed bytes, a flush, the rest) is what
// frames a relayed reply on the wire today, so the body goes through it
// rather than out in one Write, which would change the bytes clients
// receive; a writer without one (ExecScript's recorder) takes the body
// whole.
func relay(w http.ResponseWriter, rep reply) {
	if rep.contentType != "" {
		w.Header().Set("Content-Type", rep.contentType)
	}
	if rep.retryAfter != "" {
		w.Header().Set("Retry-After", rep.retryAfter)
	}
	w.WriteHeader(rep.status)
	if rf, ok := w.(io.ReaderFrom); ok {
		rf.ReadFrom(&bodyReader{b: rep.body})
	} else {
		w.Write(rep.body)
	}
}
