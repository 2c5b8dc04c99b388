// Package counters implements the per-tuple access statistics of the
// paper's §2.3: exponentially decayed request counts maintained with the
// "inflation trick" (grow the per-request increment instead of discounting
// every count), adaptive multi-rate decay tracking, and a write-behind
// count cache that bounds memory and I/O (§4.4).
package counters

import (
	"errors"
	"math"
	"sync"

	"repro/internal/ostree"
)

// renormThreshold is the increment value past which all weights are scaled
// back down to avoid floating-point overflow, "at some loss of precision"
// as the paper puts it.
const renormThreshold = 1e100

// Decayed tracks exponentially decayed access counts per item id and
// answers rank queries against the current popularity ordering.
//
// Decay semantics: conceptually, every existing count is multiplied by 1/δ
// at each decay step, so old accesses fade. Implemented by inflation: an
// access at step t adds inc(t) to the item's raw weight, where inc grows by
// the factor δ at every decay step. The decayed count of an item is its raw
// weight divided by the current increment; popularity (the paper's
// normalized frequency) is raw weight divided by total raw weight.
//
// A decay rate of exactly 1 means no decay: the full history counts.
// Decayed is safe for concurrent use.
type Decayed struct {
	mu    sync.Mutex
	decay float64
	inc   float64
	total float64
	tree  *ostree.Tree
	obs   int64
	// renorms counts how many times the inflation counter was reset; it is
	// exposed for tests and the ablation benchmarks.
	renorms int64
	// resets is the horizon moves of the trees Import replaced.
	resets int64
}

// NewDecayed returns a tracker with decay rate decay (≥ 1). It returns an
// error for rates below 1, NaN, or +Inf.
func NewDecayed(decay float64) (*Decayed, error) {
	if decay < 1 || math.IsNaN(decay) || math.IsInf(decay, 0) {
		return nil, errors.New("counters: decay rate must be a finite value >= 1")
	}
	return &Decayed{decay: decay, inc: 1, tree: ostree.New()}, nil
}

// DecayRate returns the configured δ.
func (d *Decayed) DecayRate() float64 { return d.decay }

// Observe records one access to id and then applies one decay step. This
// is the per-request cadence used for the web-trace workloads, where the
// paper applies decay "at each request, uniformly to all counts".
func (d *Decayed) Observe(id uint64) {
	d.mu.Lock()
	d.observeLocked(id, false)
	d.tickLocked()
	d.mu.Unlock()
}

// ObserveNoDecay records one access without a decay step. Workloads that
// apply decay at coarser boundaries (the box-office trace decays weekly)
// use this together with Tick.
func (d *Decayed) ObserveNoDecay(id uint64) {
	d.mu.Lock()
	d.observeLocked(id, false)
	d.mu.Unlock()
}

// observeLocked records one access. deferTree queues the rank-index move
// for the next rank read instead of applying it in place; batch observes
// use it so an id observed k times before the next quote moves once.
func (d *Decayed) observeLocked(id uint64, deferTree bool) {
	d.tree.Add(id, d.inc, deferTree)
	d.total += d.inc
	d.obs++
}

// ObserveBatch records one access to every id in order, each followed by
// one decay step — exactly the state sequence len(ids) Observe calls
// would produce — under a single lock acquisition. It is the tracker
// half of the batch-first quote/observe path: a k-tuple SELECT pays one
// lock round-trip here instead of k.
func (d *Decayed) ObserveBatch(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	// A single-tuple batch keeps the eager index write: deferring would
	// only queue a move ahead of the very next rank read.
	deferTree := len(ids) > 1
	d.mu.Lock()
	for _, id := range ids {
		d.observeLocked(id, deferTree)
		d.tickLocked()
	}
	d.mu.Unlock()
}

// Tick applies one decay step to all counts (via increment inflation).
func (d *Decayed) Tick() {
	d.mu.Lock()
	d.tickLocked()
	d.mu.Unlock()
}

// TickN applies n decay steps.
func (d *Decayed) TickN(n int) {
	d.mu.Lock()
	for i := 0; i < n; i++ {
		d.tickLocked()
	}
	d.mu.Unlock()
}

func (d *Decayed) tickLocked() {
	if d.decay == 1 {
		return // no decay: counts are unchanged
	}
	d.inc *= d.decay
	if d.inc > renormThreshold {
		scale := 1 / d.inc
		d.tree.ScaleAll(scale)
		d.total *= scale
		d.inc = 1
		d.renorms++
	}
}

// Remove drops id from the tracker entirely (e.g. when the tuple is
// deleted from the database). Reports whether it was tracked.
func (d *Decayed) Remove(id uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.tree.Weight(id)
	if !ok {
		return false
	}
	d.tree.Delete(id)
	d.total -= w
	if d.total < 0 {
		d.total = 0
	}
	return true
}

// Count returns the decayed count of id: raw weight normalized by the
// current increment. Unseen ids return 0.
func (d *Decayed) Count(id uint64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, _ := d.tree.Weight(id)
	return w / d.inc
}

// Popularity returns id's share of the total decayed weight, in [0, 1].
// This is the paper's "value of this count, normalized by a global count
// of all requests". Returns 0 before any observation.
func (d *Decayed) Popularity(id uint64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.total <= 0 {
		return 0
	}
	w, _ := d.tree.Weight(id)
	return w / d.total
}

// MaxCount returns the decayed count of the most requested item — the
// paper's fmax in effective-request units. Returns 0 before any
// observation.
func (d *Decayed) MaxCount() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxCountLocked()
}

func (d *Decayed) maxCountLocked() float64 {
	w, ok := d.tree.MaxWeight()
	if !ok {
		return 0
	}
	return w / d.inc
}

// MaxPopularity returns the popularity of the most requested item — the
// paper's fmax as a fraction of total traffic. Returns 0 before any
// observation.
func (d *Decayed) MaxPopularity() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.total <= 0 {
		return 0
	}
	w, ok := d.tree.MaxWeight()
	if !ok {
		return 0
	}
	return w / d.total
}

// Rank returns the 1-based popularity rank of id. Ids never observed rank
// after every observed id (Len()+1), matching the paper's start-up rule
// that "all items are equally unpopular with frequencies of zero".
func (d *Decayed) Rank(id uint64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, _ := d.tree.Rank(id)
	return r
}

// RankBatchMax is the whole of what a quote needs from the tracker, under
// one lock acquisition. It reads MaxCount, asks limit for the smallest
// rank L the caller prices at its cap given that count, and appends to
// ranks (pass a reused buffer sliced to zero length) every id's 1-based
// popularity rank if it is below L, and L otherwise. Ids never observed
// report -1; callers map that to their policy's "maximally unpopular"
// rank (the delay policies use N). A limit past Len()+1 asks for exact
// ranks; a smaller one lets the index keep positions for about 2L ids
// only (ostree's horizon).
func (d *Decayed) RankBatchMax(ids []uint64, ranks []int, limit func(maxCount float64) int) ([]int, float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	maxCount := d.maxCountLocked()
	l := limit(maxCount)
	for _, id := range ids {
		r, ok := d.tree.RankUpTo(id, l)
		if !ok {
			r = -1
		}
		ranks = append(ranks, r)
	}
	return ranks, maxCount
}

// RankMax returns id's exact rank (-1 when it was never observed) and
// MaxCount from one tracker state, for analysis code that wants the rank
// itself rather than a price.
func (d *Decayed) RankMax(id uint64) (rank int, maxCount float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.tree.Rank(id)
	if !ok {
		r = -1
	}
	return r, d.maxCountLocked()
}

// Ranked returns how many ids hold a position in the rank index: Len()
// until a capped quote lets it keep positions only below its horizon.
func (d *Decayed) Ranked() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tree.Ranked()
}

// HorizonResets returns how many times the rank index's horizon was set,
// cut back, rebuilt or dropped.
func (d *Decayed) HorizonResets() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.resets + d.tree.HorizonResets()
}

// Len returns the number of distinct ids observed.
func (d *Decayed) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tree.Len()
}

// Observations returns the total number of accesses recorded.
func (d *Decayed) Observations() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.obs
}

// Renormalizations returns how many times counts were rescaled to avoid
// overflow.
func (d *Decayed) Renormalizations() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.renorms
}

// Ascend visits observed ids in rank order (most popular first) until fn
// returns false. The weight passed to fn is the decayed count. The lock is
// held for the duration; fn must not call back into d.
func (d *Decayed) Ascend(fn func(rank int, id uint64, count float64) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	inc := d.inc
	d.tree.Ascend(func(rank int, id uint64, w float64) bool {
		return fn(rank, id, w/inc)
	})
}

// Export returns every observed id with its decayed count, in rank
// order, for persistence. Pair with Import to carry learned popularity
// across restarts.
func (d *Decayed) Export() (ids []uint64, counts []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	inc := d.inc
	d.tree.Ascend(func(_ int, id uint64, w float64) bool {
		ids = append(ids, id)
		counts = append(counts, w/inc)
		return true
	})
	return ids, counts
}

// Import replaces the tracker's state with the given decayed counts
// (e.g. from a previous process's Export). Non-positive counts are
// skipped; when an id repeats, its last count wins and it is counted
// once. The observation total is reset to the number of imported ids;
// the decay increment restarts at 1. The rank index is built in O(N)
// radix passes (by id when the ids do not already ascend, then by
// weight) rather than an upsert per id.
func (d *Decayed) Import(ids []uint64, counts []float64) error {
	if len(ids) != len(counts) {
		return errors.New("counters: import length mismatch")
	}
	pairs := make([]ostree.Pair, 0, len(ids))
	total := 0.0
	for i, id := range ids {
		c := counts[i]
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			continue
		}
		total += c
		pairs = append(pairs, ostree.Pair{ID: id, Weight: c})
	}
	// By id, as the index wants them; the sort is stable so that the last
	// of a repeated id's counts is the one that stays.
	ostree.SortByID(pairs)
	kept := pairs[:0]
	for i, p := range pairs {
		if i+1 < len(pairs) && pairs[i+1].ID == p.ID {
			total -= p.Weight // a repeated id gives back its earlier count
			continue
		}
		kept = append(kept, p)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs = int64(len(kept))
	d.resets += d.tree.HorizonResets()
	d.tree = ostree.FromWeights(kept)
	d.total = total
	d.inc = 1
	return nil
}

// Snapshot returns all observed ids in rank order together with their
// popularities. It is used by experiment harnesses to freeze a learned
// distribution.
func (d *Decayed) Snapshot() (ids []uint64, pops []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := d.total
	d.tree.Ascend(func(_ int, id uint64, w float64) bool {
		ids = append(ids, id)
		if total > 0 {
			pops = append(pops, w/total)
		} else {
			pops = append(pops, 0)
		}
		return true
	})
	return ids, pops
}
