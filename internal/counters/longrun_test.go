package counters_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/delay"
	"repro/internal/zipf"
)

// TestLongRunCappedRanksMatchASort drives a 20,000-id tracker the way
// scan_mixed does, for long enough to move everything the rank index
// keeps: Zipf-started ranges of 10, 100 and 1,000 ids and point reads,
// each quoted by RankBatchMax under the cap rank of a capped
// delay.Popularity and then observed, with an id removed now and then.
// Hot ids move toward rank 1 on every statement, ids cross the horizon
// both ways, and the horizon is cut back and rebuilt as L moves. At every
// checkpoint each quoted rank must be min(rank, L) for the rank a
// brute-force sort of (count, id) gives, and Ranked() must lie in
// [L, 4L]: at least L positions (fewer rebuild the horizon) and at most
// horizonCut·L (more cut it back to 2L).
func TestLongRunCappedRanksMatchASort(t *testing.T) {
	const n, statements, every = 20_000, 20_000, 97
	tr, _ := counters.NewDecayed(1)
	p, err := delay.NewPopularity(delay.PopularityConfig{N: n, Alpha: 1, Beta: 2, Cap: 10 * time.Second}, tr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	dist, _ := zipf.New(n, 1)
	starts, hot := zipf.NewSampler(dist, 54), rng.Perm(n)
	counts := map[uint64]int{} // the oracle: with no decay a weight is a count
	var ids []uint64
	var ranks []int
	checked, cuts := 0, map[bool]int{}
	for st := 0; st < statements; st++ {
		length := 1
		switch u := rng.Float64(); {
		case u < 0.1:
			length = 1000
		case u < 0.3:
			length = 100
		case u < 0.7:
			length = 10
		}
		lo := min(hot[starts.Next()-1], n-length)
		ids = ids[:0]
		for id := lo; id < lo+length; id++ {
			ids = append(ids, uint64(id+1))
		}
		l := p.CapRank()
		check := st%every == 0
		var want map[uint64]int
		if check {
			want = bruteRanks(counts)
		}
		ranks, _ = tr.RankBatchMax(ids, ranks[:0], func(float64) int { return l })
		if check {
			checked++
			for i, id := range ids {
				w, seen := want[id]
				switch {
				case !seen && ranks[i] != -1, seen && ranks[i] != min(w, l):
					t.Fatalf("statement %d: rank of %d = %d, want min(%d, %d) (seen %v)", st, id, ranks[i], w, l, seen)
				}
			}
			if r := tr.Ranked(); r < min(l, tr.Len()) || r > 4*l {
				t.Fatalf("statement %d: %d ids hold positions, L = %d", st, r, l)
			}
			cuts[tr.Ranked() < tr.Len()]++
		}
		tr.ObserveBatch(ids)
		for _, id := range ids {
			counts[id]++
		}
		if rng.Intn(50) == 0 {
			victim := ids[rng.Intn(len(ids))]
			tr.Remove(victim)
			delete(counts, victim)
		}
	}
	if cuts[true] == 0 || tr.HorizonResets() < 2 {
		t.Fatalf("the horizon never held back positions (%d checkpoints with one, %d resets)", cuts[true], tr.HorizonResets())
	}
	t.Logf("%d statements, %d checkpoints (%d behind a horizon), %d ids tracked, %d holding positions, %d horizon resets",
		statements, checked, cuts[true], tr.Len(), tr.Ranked(), tr.HorizonResets())
}

// bruteRanks ranks every counted id by sorting: higher count first, then
// lower id.
func bruteRanks(counts map[uint64]int) map[uint64]int {
	ids := make([]uint64, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(counts[b], counts[a]), cmp.Compare(a, b))
	})
	ranks := make(map[uint64]int, len(ids))
	for i, id := range ids {
		ranks[id] = i + 1
	}
	return ranks
}
