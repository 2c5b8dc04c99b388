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

// clampRank maps a tracker rank onto a formula's range 1..n:
// never-observed tuples (-1) and ranks past the configured dataset size
// (more distinct ids observed than n) are charged as rank n.
func clampRank(rank, n int) int {
	if rank < 0 || rank > n {
		return n
	}
	return rank
}

// batchQuote is the per-call scratch delayBatch ranks a batch into. One
// pool serves every policy, so steady-state quoting allocates nothing.
type batchQuote struct {
	ranks []int
}

var batchQuotePool = sync.Pool{New: func() any { return new(batchQuote) }}

// delayBatch prices ids for p: the saturating sum, in id order, of the
// per-tuple prices — bit-identical to calling Delay per id at the same
// tracker state. The ranks and the normaliser come from one
// tracker.RankBatchMax call, one lock acquisition for the whole batch.
func delayBatch(p rankPricer, tracker *counters.Decayed, ids []uint64) time.Duration {
	if len(ids) == 1 {
		// Point queries skip the pooled scratch: same arithmetic.
		return delayOne(p, tracker, ids[0])
	}
	q := batchQuotePool.Get().(*batchQuote)
	defer batchQuotePool.Put(q)
	var maxCount float64
	q.ranks, maxCount = tracker.RankBatchMax(ids, q.ranks[:0])
	scale := p.scaleFor(maxCount)
	var total time.Duration
	for _, r := range q.ranks {
		total = satAdd(total, p.priceAt(r, scale))
	}
	return total
}

// delayOne prices one id from one tracker state: its rank and the
// normaliser are read under the same lock acquisition.
func delayOne(p rankPricer, tracker *counters.Decayed, id uint64) time.Duration {
	rank, maxCount := tracker.RankMax(id)
	return p.priceAt(rank, p.scaleFor(maxCount))
}
