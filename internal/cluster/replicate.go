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

// This file is the read side of the replica-group layer over the
// partition map: point reads (and per-tuple quotes) that go to a
// partition's replica group and fail over inside it, with bounded,
// jittered retry. They may read any readable replica because of the
// invariant write.go defends: every replica serving reads holds every
// acked write.

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
	group := pm.Replicas[part]
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
	server.WriteErr(w, http.StatusServiceUnavailable,
		fmt.Errorf("partition %d unavailable: no readable replica", part))
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
	var qr server.QuoteRequest
	if !server.DecodeBody(w, req, server.MaxBodyBytes, &qr) {
		return
	}
	if len(qr.IDs) == 0 {
		server.WriteErr(w, http.StatusBadRequest, errors.New("no tuple ids to quote"))
		return
	}
	pm := r.pmap.Load()
	byNode := make([][]uint64, len(r.nodes))
	for _, id := range qr.IDs {
		p := pm.PartitionOf(int64(id))
		node := r.firstReadable(pm.Replicas[p])
		if node < 0 {
			server.WriteErr(w, http.StatusServiceUnavailable,
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
			server.WriteErr(w, http.StatusServiceUnavailable, err)
			return
		}
		total.DelayMillis += part.DelayMillis
		total.Tuples += part.Tuples
	}
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}
	server.WriteJSON(w, http.StatusOK, total)
}
