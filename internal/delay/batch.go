package delay

import (
	"sync"
	"time"

	"repro/internal/counters"
)

// rankPricer is what the rank-keyed policies (Popularity, UpdateRate)
// differ in; delayBatch is everything they share.
type rankPricer interface {
	// scaleFor turns the tracker's MaxCount into the formula's
	// normaliser (fmax, rmax); ≤ 0 means nothing is learned yet.
	scaleFor(maxCount float64) float64
	// priceAt prices one tuple from its tracker rank (-1 = never seen).
	priceAt(rank int, scale float64) time.Duration
}

// batchQuote is the per-call scratch delayBatch prices a batch with: the
// tracker ranks, the per-tuple prices, the cache-miss indices, and the
// compacted miss ids/prices handed to the tracker and StoreBatch. One
// pool serves every policy, so steady-state quoting allocates nothing.
type batchQuote struct {
	ranks    []int
	perTuple []time.Duration
	miss     []int
	missIDs  []uint64
	prices   []time.Duration
}

var batchQuotePool = sync.Pool{New: func() any { return new(batchQuote) }}

// delayBatch prices ids for p: the saturating sum, in id order, of the
// per-tuple prices — bit-identical to calling Delay per id. Whatever the
// cache (nil = none) cannot serve at epoch is ranked in one
// tracker.RankBatchMax call, one lock acquisition for the whole batch.
func delayBatch(p rankPricer, tracker *counters.Decayed, cache *PriceCache, epoch uint64, ids []uint64) time.Duration {
	if len(ids) == 1 && cache == nil {
		// Point queries skip the pooled scratch: same arithmetic.
		rank, maxCount := tracker.RankMax(ids[0])
		return p.priceAt(rank, p.scaleFor(maxCount))
	}
	q := batchQuotePool.Get().(*batchQuote)
	defer batchQuotePool.Put(q)
	var total time.Duration
	if cache == nil {
		var maxCount float64
		q.ranks, maxCount = tracker.RankBatchMax(ids, q.ranks[:0])
		scale := p.scaleFor(maxCount)
		for _, r := range q.ranks {
			total = satAdd(total, p.priceAt(r, scale))
		}
		return total
	}
	if cap(q.perTuple) < len(ids) {
		q.perTuple = make([]time.Duration, len(ids))
	}
	// Slots are not zeroed: each index is written exactly once, by the
	// lookup (a hit) or by the loop below (a miss).
	perTuple := q.perTuple[:len(ids)]
	q.miss = cache.LookupBatch(ids, epoch, perTuple, q.miss[:0])
	if len(q.miss) > 0 {
		q.missIDs = q.missIDs[:0]
		for _, i := range q.miss {
			q.missIDs = append(q.missIDs, ids[i])
		}
		var maxCount float64
		q.ranks, maxCount = tracker.RankBatchMax(q.missIDs, q.ranks[:0])
		scale := p.scaleFor(maxCount)
		q.prices = q.prices[:0]
		for j, r := range q.ranks {
			d := p.priceAt(r, scale)
			q.prices = append(q.prices, d)
			perTuple[q.miss[j]] = d
		}
		// The unlearned state (scale ≤ 0) prices everything at the cap
		// regardless of rank; caching it would pin the start-up transient
		// for up to lag mutations after the first real observation.
		if scale > 0 {
			cache.StoreBatch(q.missIDs, q.prices, epoch)
		}
	}
	for _, d := range perTuple {
		total = satAdd(total, d)
	}
	return total
}
