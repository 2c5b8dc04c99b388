package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/detect"
	"repro/internal/server"
)

// Anti-entropy: the router periodically pulls each shard's sketch
// delta (principals observed locally since the last round whose
// coverage clears the export floor) and pushes the union to every
// other shard. Sketches are CRDTs — HLL unions by register max,
// MinHash by slot min — so hub-spoke exchange through the router
// converges every shard on the global per-principal view in ONE round,
// and re-delivery is harmless. Staleness is therefore bounded by one
// exchange period: a Sybil spreading identities (or one identity's
// queries) across shards under-prices for at most that long.
//
// The exchange rides the same GET/POST /admin/sketches endpoints and
// node transports queries use, so local and HTTP clusters serialize
// identically and a dead peer latches down here exactly as it would on
// the query path.

// ExchangeNow runs one synchronous anti-entropy round and returns the
// first error encountered (the round still visits every peer).
// Tests and the experiments drive rounds directly; deployments use
// StartAntiEntropy.
func (r *Router) ExchangeNow() error {
	r.ae.mu.Lock()
	defer r.ae.mu.Unlock()
	return r.exchangeLocked(DefaultExportFloor)
}

// ExchangeNowFloor is ExchangeNow with an explicit export floor.
func (r *Router) ExchangeNowFloor(floor float64) error {
	r.ae.mu.Lock()
	defer r.ae.mu.Unlock()
	return r.exchangeLocked(floor)
}

func (r *Router) exchangeLocked(floor float64) error {
	var firstErr error
	// Probe phase: each down peer gets a cheap /healthz check. A peer
	// that answers rejoins the write plane and the exchange in the
	// writes-only resync state — it missed fan-out writes while down,
	// so reachability alone must NOT put it back on the read path
	// (see Node.resync; only CatchUpPeer's data copy does that).
	// The revived peer also missed whole exchange rounds (and may have
	// restarted and lost its table), so revival resets EVERY source
	// watermark — the pulls below then re-export full history and the
	// straggler's *sketches* converge within this round. Merges are
	// idempotent, so the re-delivery to up-to-date peers costs
	// bandwidth, not correctness.
	revived := false
	for _, n := range r.nodes {
		if n.down.Load() && r.probePeer(n) {
			revived = true
		}
	}
	if revived {
		clear(r.ae.marks)
		r.syncPeerDown()
	}

	// Pull phase: collect each reachable shard's delta (resync peers
	// included — the exchange is exactly their sketch repair channel).
	// New watermarks stay tentative until the push phase lands: a
	// delta is only "delivered" once every push of the round succeeds.
	pages := make([]*server.SketchPage, len(r.nodes))
	marks := make([]uint64, len(r.nodes))
	copy(marks, r.ae.marks)
	for i, n := range r.nodes {
		if n.down.Load() {
			continue
		}
		page, err := r.pullSketches(n, r.ae.marks[i], floor)
		if err != nil {
			r.aeErrors.Inc()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !page.Enabled {
			continue // shard runs without a detector; nothing to exchange
		}
		pages[i] = page
		marks[i] = page.Since
		for _, sn := range page.Sketches {
			r.aeBytes.Add(int64(sn.WireBytes()))
		}
		r.aePrincipals.Add(int64(len(page.Sketches)))
	}

	// Push phase: every shard absorbs every *other* shard's delta.
	// Advancing the pull watermark past pushed state is what keeps the
	// hub from echoing: Absorb does not mark sketches locally-seen.
	pushFailed := false
	for j, n := range r.nodes {
		if n.down.Load() {
			continue
		}
		var batch []detect.SketchSnapshot
		for i, page := range pages {
			if i == j || page == nil {
				continue
			}
			batch = append(batch, page.Sketches...)
		}
		if len(batch) == 0 {
			continue
		}
		rejected, err := r.pushSketches(n, batch)
		if err != nil {
			r.aeErrors.Inc()
			pushFailed = true
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.aeRejected.Add(int64(rejected))
	}
	// Commit the watermarks only if every push landed. A failed push —
	// even an HTTP error from a shard that stays up — leaves the marks
	// where they were, so the next round re-pulls the same deltas and
	// re-pushes them; idempotent merges make the re-delivery to the
	// peers that DID succeed free of everything but bandwidth. Without
	// this, a one-round push failure would permanently withhold those
	// sketches from the failed peer, breaking the one-period staleness
	// bound.
	if !pushFailed {
		copy(r.ae.marks, marks)
	}
	r.aeRounds.Inc()
	r.ae.lastRound = r.cfg.Clock.Now()
	return firstErr
}

// mergeLag is the live staleness gauge: seconds since the last
// completed exchange round (0 before the first round — nothing has
// diverged yet if nothing has exchanged).
func (r *Router) mergeLag() float64 {
	r.ae.mu.Lock()
	last := r.ae.lastRound
	r.ae.mu.Unlock()
	if last.IsZero() {
		return 0
	}
	return r.cfg.Clock.Now().Sub(last).Seconds()
}

// probePeer checks a down peer's /healthz. An answer clears the down
// latch but latches resync in its place: the peer is reachable again
// and rejoins the write fan-out and the sketch exchange, but it missed
// acked writes while down (the exchange re-converges only sketches), so
// it must not serve reads until POST /admin/resync (CatchUpPeer) has
// re-copied its partitions from a readable replica.
func (r *Router) probePeer(n *Node) bool {
	if r.rpcJSON(context.Background(), n, http.MethodGet, "/healthz", nil, nil) != nil {
		return false
	}
	n.latchResync() // down→resync: same episode, original stamp kept
	n.down.Store(false)
	return true
}

func (r *Router) pullSketches(n *Node, since uint64, floor float64) (*server.SketchPage, error) {
	var page server.SketchPage
	path := fmt.Sprintf("/admin/sketches?since=%d&floor=%g", since, floor)
	if err := r.rpcJSON(context.Background(), n, http.MethodGet, path, nil, &page); err != nil {
		return nil, fmt.Errorf("cluster: pulling sketches: %w", err)
	}
	return &page, nil
}

func (r *Router) pushSketches(n *Node, batch []detect.SketchSnapshot) (rejected int, err error) {
	// Respect the shard's per-request batch ceiling; sketches are a
	// few KiB each, so chunks stay well-bounded.
	const chunk = 1000
	for len(batch) > 0 {
		part := batch[:min(len(batch), chunk)]
		batch = batch[len(part):]
		var out server.SketchAbsorbResponse
		if err := r.rpcJSON(context.Background(), n, http.MethodPost, "/admin/sketches", server.SketchAbsorbRequest{Sketches: part}, &out); err != nil {
			return rejected, fmt.Errorf("cluster: pushing sketches: %w", err)
		}
		rejected += out.Rejected
	}
	return rejected, nil
}

// StartAntiEntropy launches the periodic exchange loop. interval ≤ 0
// means DefaultExchangeEvery; floor < 0 means DefaultExportFloor.
// Call StopAntiEntropy to halt it; starting twice stops the first
// loop.
func (r *Router) StartAntiEntropy(interval time.Duration, floor float64) {
	if interval <= 0 {
		interval = DefaultExchangeEvery
	}
	if floor < 0 {
		floor = DefaultExportFloor
	}
	r.StopAntiEntropy()
	stop := make(chan struct{})
	done := make(chan struct{})
	r.ae.mu.Lock()
	r.ae.stop, r.ae.done = stop, done
	r.ae.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.ae.mu.Lock()
				r.exchangeLocked(floor)
				r.ae.mu.Unlock()
			}
		}
	}()
}

// StopAntiEntropy halts the exchange loop and waits for the in-flight
// round, if any, to finish. Safe to call when no loop is running.
func (r *Router) StopAntiEntropy() {
	r.ae.mu.Lock()
	stop, done := r.ae.stop, r.ae.done
	r.ae.stop, r.ae.done = nil, nil
	r.ae.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
