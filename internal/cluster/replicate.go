package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/server"
)

// This file is the replica-group layer over the partition map: point
// reads (and per-tuple quotes) that go to a partition's replica group
// and fail over inside it (with bounded, jittered retry), single-key
// group writes that apply to every replica in the router's order and
// ack on a readable-replica success, and the broadcast that applies a
// DDL to every node under the same rule. The invariant all of them
// defend: an acked write is readable
// on every shard a read can route to — a replica that missed or
// rejected an acked write leaves the read path (down or resync latch)
// before the ack is relayed.

// rpcBackoffBase mirrors the shard client's retry policy at the router
// layer (exponential with full ±50% jitter, capped at 10× base).
const rpcBackoffBase = 25 * time.Millisecond

// rpcBackoff returns the sleep before retry attempt (0-based).
func rpcBackoff(attempt int) time.Duration {
	d := rpcBackoffBase << attempt
	if max := 10 * rpcBackoffBase; d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// readRetryRounds bounds how many full walks of a replica group (or
// re-covers of a scatter) a read attempts before giving up: the first
// walk plus two jittered-backoff retries. Only idempotent reads retry;
// a charged write is never re-sent.
const readRetryRounds = 3

// firstReadable returns the first member of a replica group that may
// serve reads, or -1.
func (r *Router) firstReadable(group []int) int {
	for _, i := range group {
		if r.nodes[i].readable() {
			return i
		}
	}
	return -1
}

// serveReplicaRead answers a point read pinned to one partition: walk
// the replica group in preference order, skipping unreadable replicas,
// failing over past dead ones. A replica's transport failure latches it
// down and the walk continues — this is how a primary kill stays
// invisible to clients when R > 1. A 5xx answer is retryable too (on
// another replica first, then after a jittered backoff), bounded by
// readRetryRounds; the last shard answer is relayed when the budget
// runs out. The response relays only after re-checking the map pointer,
// so an answer computed under a superseded map is retracted as a 409.
func (r *Router) serveReplicaRead(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, part int, c *call) {
	group := pm.groupOf(part)
	var last reply // the latest 5xx answer; status 0 while there is none
	for round := 0; round < readRetryRounds; round++ {
		if round > 0 {
			if r.firstReadable(group) < 0 {
				break // nothing left to retry against
			}
			r.readRetries.Inc()
			r.cfg.Clock.Sleep(rpcBackoff(round - 1))
		}
		for ri, i := range group {
			n := r.nodes[i]
			if !n.readable() {
				continue
			}
			if ri > 0 || round > 0 {
				r.readFailover.Inc()
			}
			rep, err := r.rpc(ctx, n, c)
			if err != nil {
				continue // latched down; next replica
			}
			if rep.status >= http.StatusInternalServerError {
				last = rep
				continue
			}
			r.relayUnder(w, pm, rep)
			return
		}
	}
	if last.status != 0 {
		r.relayUnder(w, pm, last)
		return
	}
	writeErr(w, http.StatusServiceUnavailable,
		fmt.Errorf("partition %d unavailable: no readable replica", part))
}

// serveGroupWrite applies a single-key write to its partition's whole
// replica group (plus any migration dual-write gainers), in the
// router's order: the caller holds the partition's mutex for the full
// fan, so two writes to one partition cannot interleave differently on
// different replicas. A gainer's failure never fails the client — it
// marks the partition dirty so the migrator re-copies it.
func (r *Router) serveGroupWrite(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, part int, c *call) {
	r.partLocks.RLock()
	defer r.partLocks.RUnlock()
	r.partMu[part].Lock()
	defer r.partMu[part].Unlock()

	// The map may have cut over while this write queued on the lock;
	// its partition assignment (and dual-write set) would be stale.
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}

	group := pm.groupOf(part)
	gainers := r.migrationGainers(pm, part)
	targets := make([]int, 0, len(group)+len(gainers))
	for _, i := range group {
		if !r.nodes[i].down.Load() {
			targets = append(targets, i)
		}
	}
	owners := len(targets)
	if owners == 0 {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("partition %d unavailable: no reachable replica", part))
		return
	}
	dirty := func() { r.migrationMarkDirty(pm, part) }
	for _, i := range gainers {
		if r.nodes[i].down.Load() {
			// The in-flight copy misses this write; re-queue the
			// partition for the migrator rather than dropping it.
			dirty()
			continue
		}
		targets = append(targets, i)
	}
	if rep, ok := r.ackWrite(ctx, w, c, targets, owners, dirty); ok {
		r.relayUnder(w, pm, rep)
	}
}

// broadcast applies a statement every shard must agree on — DDL, and
// POST /register — to every reachable node, including nodes that own no
// partition (they may gain one at the next rebalance and need the
// catalog). It holds the scatter-write lock exclusively, so a DDL
// orders against every tuple write the same way on every replica, and
// acks by the group write's rule with the whole cluster as the group.
func (r *Router) broadcast(ctx context.Context, w http.ResponseWriter, c *call) {
	r.partLocks.Lock()
	defer r.partLocks.Unlock()
	targets := r.reachable()
	if len(targets) == 0 {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
		return
	}
	if rep, ok := r.ackWrite(ctx, w, c, targets, len(targets), nil); ok {
		relay(w, rep)
	}
}

// ackWrite sends one write to targets and decides its outcome — the one
// copy of the ack rule. The first owners targets are the owning
// replicas; the rest are migration gainers, whose failures call
// gainerFailed and never reach the client. The write acks iff a
// READABLE owner accepted it: a success visible to no read route is not
// an acked write. An owner that failed while a sibling acked has
// diverged from the replica set the client was told about and is
// latched out of the read path (resync) before the ack relays; owners
// that died mid-write latched down inside rpc. With no ack, the first
// owner error answer relays (replicas agree on deterministic rejections
// like a parse or duplicate-key error). Returns the reply to relay, or
// false after answering 503 itself.
func (r *Router) ackWrite(ctx context.Context, w http.ResponseWriter, c *call, targets []int, owners int, gainerFailed func()) (reply, bool) {
	// Single-target fast path — the R=1 steady state: forward raw, no
	// fan bookkeeping. Requires the sole target to be readable, because
	// a success confined to a writes-only resync replica is not an ack.
	if len(targets) == 1 && r.nodes[targets[0]].readable() {
		n := r.nodes[targets[0]]
		rep, err := r.rpc(ctx, n, c)
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("shard %s unreachable: %v", n.name, err))
			return reply{}, false
		}
		return rep, true
	}

	r.writeFanout.Inc()
	legs := make([]fanLeg, len(targets))
	r.fan(ctx, targets, func(int) *call { return c }, func(slot int, leg fanLeg) { legs[slot] = leg })

	var ok, firstErr *reply
	resyncOnlyOK := false
	for slot := range legs {
		leg, isOwner := &legs[slot], slot < owners
		switch {
		case leg.err != nil:
			r.writeFanErr.Inc()
			if !isOwner {
				gainerFailed()
			}
		case !isOwner:
			if leg.rep.status != http.StatusOK {
				gainerFailed()
			}
		case leg.rep.status != http.StatusOK:
			if firstErr == nil {
				firstErr = &leg.rep
			}
		case !r.nodes[targets[slot]].readable():
			resyncOnlyOK = true
		case ok == nil:
			ok = &leg.rep
		}
	}
	if ok != nil {
		// Acked: every owner that did not apply it — it answered an
		// error, or its fan leg was dropped before the wire
		// (cluster.fanout) — is quarantined writes-only.
		for slot, leg := range legs[:owners] {
			n := r.nodes[targets[slot]]
			applied := leg.err == nil && leg.rep.status == http.StatusOK
			if applied || n.down.Load() || n.resync.Load() {
				continue
			}
			n.latchResync()
			r.writeDiverged.Inc()
		}
		r.syncPeerDown()
		return *ok, true
	}
	if firstErr != nil {
		return *firstErr, true
	}
	msg := "write reached no replica"
	if resyncOnlyOK {
		msg = "write applied to no read-serving replica; retry when the cluster recovers"
	}
	writeErr(w, http.StatusServiceUnavailable, errors.New(msg))
	return reply{}, false
}

// handleQuote prices an extraction plan by tuple, not by caller: the ids
// group by partition and each group is quoted by the first readable
// replica of its partition — the shard whose counters the reads of
// those tuples actually warm. The per-shard quotes add up (a quote is a
// sum of per-tuple delays); a shard's 4xx (an unknown id) relays
// verbatim, and a partition with no readable replica is a 503. Like
// every partitioned read, the answer is retracted if the map moved
// while it was computed.
func (r *Router) handleQuote(w http.ResponseWriter, req *http.Request) {
	if ct := req.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		writeErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q; want application/json", ct))
		return
	}
	var qr server.QuoteRequest
	if !server.DecodeBody(w, req, server.MaxBodyBytes, &qr) {
		return
	}
	if len(qr.IDs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no tuple ids to quote"))
		return
	}
	pm := r.pmap.Load()
	byNode := make([][]uint64, len(r.nodes))
	for _, id := range qr.IDs {
		p := pm.PartitionOf(int64(id))
		node := r.firstReadable(pm.groupOf(p))
		if node < 0 {
			writeErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("partition %d unavailable: no readable replica", p))
			return
		}
		byNode[node] = append(byNode[node], id)
	}
	var total server.QuoteResponse
	for node, ids := range byNode {
		if len(ids) == 0 {
			continue
		}
		var part server.QuoteResponse
		err := r.rpcJSON(req.Context(), r.nodes[node], http.MethodPost, "/admin/quote", server.QuoteRequest{IDs: ids}, &part)
		var rejected *statusError
		switch {
		case errors.As(err, &rejected):
			relay(w, rejected.rep)
			return
		case err != nil:
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		total.DelayMillis += part.DelayMillis
		total.Tuples += part.Tuples
	}
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}
	writeJSON(w, http.StatusOK, total)
}
