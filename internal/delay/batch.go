package delay

import (
	"math"
	"sort"
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
	// capRank is Eq 5's M at scale: the smallest rank r ≤ N with
	// priceAt(r) == priceAt(N), or N+1 when the cap never binds. Either
	// way priceAt(min(r, capRank)) == priceAt(r) for every rank r.
	capRank(scale float64) int
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

// capRankNear implements capRank for a policy over ranks 1..n whose cap,
// when it has one, is what it charges at scale 0. guess is the policy's
// closed-form M; priceAt itself decides, so a guess off by float
// rounding costs a neighbour's price, and one further off (not expected)
// a binary search: prices never fall as the rank grows.
func capRankNear(p rankPricer, scale float64, n int, capped bool, guess float64) int {
	top := p.priceAt(n, scale)
	if !capped || top != p.priceAt(n, 0) {
		return n + 1
	}
	at := func(r int) bool { return p.priceAt(r, scale) == top }
	r := n
	if g := math.Ceil(guess); !(g >= 1) {
		r = 1
	} else if g < float64(n) {
		r = int(g)
	}
	switch {
	case at(r) && (r == 1 || !at(r-1)):
		return r
	case !at(r) && at(r+1): // r < n, since at(n)
		return r + 1
	}
	return 1 + sort.Search(n, func(i int) bool { return at(i + 1) })
}

// rankSource is where a rank-keyed policy reads its ranks: the tracker,
// and the cap rank it last derived, kept because capRank costs a few
// priceAt calls while the scale seldom changes between two quotes when
// counts do not decay. capScale and capAt are read and written only by
// limit, which runs under the tracker's lock.
type rankSource struct {
	tracker  *counters.Decayed
	capScale float64
	capAt    int // 0: none derived yet
}

// limit returns p.capRank(scale), remembered from the last call when the
// scale is the same.
func (s *rankSource) limit(p rankPricer, scale float64) int {
	if s.capAt == 0 || scale != s.capScale {
		s.capScale, s.capAt = scale, p.capRank(scale)
	}
	return s.capAt
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
// tracker.RankBatchMax call, one lock acquisition for the whole batch,
// which ranks only below the cap rank: every tuple at or past it, and
// every never-seen one, costs priceAt(N), computed once.
func delayBatch(p rankPricer, src *rankSource, ids []uint64) time.Duration {
	if len(ids) == 1 {
		// Point queries skip the pooled scratch: same arithmetic.
		return delayOne(p, src, ids[0])
	}
	q := batchQuotePool.Get().(*batchQuote)
	defer batchQuotePool.Put(q)
	var scale float64
	var capAt int
	q.ranks, _ = src.tracker.RankBatchMax(ids, q.ranks[:0], func(maxCount float64) int {
		scale = p.scaleFor(maxCount)
		capAt = src.limit(p, scale)
		return capAt
	})
	capped := p.priceAt(capAt, scale)
	var total time.Duration
	for _, r := range q.ranks {
		d := capped
		if r >= 0 && r < capAt {
			d = p.priceAt(r, scale)
		}
		total = satAdd(total, d)
	}
	return total
}

// delayOne prices one id from one tracker state: its rank and the
// normaliser are read under the same lock acquisition, as delayBatch
// reads them.
func delayOne(p rankPricer, src *rankSource, id uint64) time.Duration {
	var scale float64
	var rank [1]int
	src.tracker.RankBatchMax([]uint64{id}, rank[:0], func(maxCount float64) int {
		scale = p.scaleFor(maxCount)
		return src.limit(p, scale)
	})
	return p.priceAt(rank[0], scale)
}
