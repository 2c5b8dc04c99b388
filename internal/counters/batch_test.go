package counters

import (
	"math/rand"
	"testing"
)

// ObserveBatch must leave the tracker in exactly the state a sequence of
// per-tuple Observe calls produces: same counts bit for bit, same
// observation totals, same ranks.
func TestObserveBatchMatchesSequentialObserve(t *testing.T) {
	for _, decay := range []float64{1, 1.000001, 1.05} {
		seq, _ := NewDecayed(decay)
		bat, _ := NewDecayed(decay)
		rng := rand.New(rand.NewSource(7))
		ids := make([]uint64, 500)
		for i := range ids {
			ids[i] = uint64(rng.Intn(40))
		}
		for _, id := range ids {
			seq.Observe(id)
		}
		bat.ObserveBatch(ids)
		if seq.Observations() != bat.Observations() {
			t.Fatalf("decay %v: observations %d vs %d", decay, seq.Observations(), bat.Observations())
		}
		for id := uint64(0); id < 40; id++ {
			if seq.Count(id) != bat.Count(id) {
				t.Fatalf("decay %v: count(%d) %v vs %v", decay, id, seq.Count(id), bat.Count(id))
			}
			if seq.Rank(id) != bat.Rank(id) {
				t.Fatalf("decay %v: rank(%d) %d vs %d", decay, id, seq.Rank(id), bat.Rank(id))
			}
		}
	}
}

// RankBatchMax must agree with the per-id Count/Rank/MaxCount protocol
// the delay policies used before batching: -1 exactly for never-observed
// ids, the tree rank otherwise, capped at the limit the caller derives
// from MaxCount; RankMax is the exact single-id form. The limits, in
// order, set the index's horizon, cut it back, rebuild it and drop it.
func TestRankBatchMaxMatchesPerIDRank(t *testing.T) {
	d, _ := NewDecayed(1.0001)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		d.Observe(uint64(rng.Intn(100)))
	}
	ids := make([]uint64, 150)
	for i := range ids {
		ids[i] = uint64(i) // 100..149 never observed (probably); verified below
	}
	n := d.Len()
	for i, c := range []struct{ limit, ranked int }{{7, 14}, {1, 2}, {40, 80}, {1 << 30, n}} {
		buf := make([]int, 3, 200)
		var asked float64
		ranks, max := d.RankBatchMax(ids, buf[:0], func(maxCount float64) int {
			asked = maxCount
			return c.limit
		})
		if len(ranks) != len(ids) || &ranks[0] != &buf[0] {
			t.Fatalf("len %d != %d, or the buffer was not reused", len(ranks), len(ids))
		}
		if max != d.MaxCount() || asked != max {
			t.Fatalf("max count %v, asked with %v, MaxCount %v", max, asked, d.MaxCount())
		}
		if d.Ranked() != c.ranked || d.HorizonResets() != int64(i+1) {
			t.Fatalf("limit %d: %d of %d ids ranked, %d horizon resets; want %d, %d", c.limit, d.Ranked(), n, d.HorizonResets(), c.ranked, i+1)
		}
		for i, id := range ids {
			want, exact := -1, -1
			if d.Count(id) > 0 {
				exact = d.Rank(id)
				want = min(exact, c.limit)
			}
			if ranks[i] != want {
				t.Fatalf("limit %d, id %d: rank %d, want %d", c.limit, id, ranks[i], want)
			}
			if r, m := d.RankMax(id); r != exact || m != max {
				t.Fatalf("id %d: RankMax = %d, %v; want %d, %v", id, r, m, exact, max)
			}
		}
	}
}

// MultiDecay.ObserveBatch must match per-id Observe exactly, scores
// included.
func TestMultiDecayObserveBatchMatchesSequential(t *testing.T) {
	seq, _ := NewMultiDecay([]float64{1, 1.05}, 0.9, 5)
	bat, _ := NewMultiDecay([]float64{1, 1.05}, 0.9, 5)
	rng := rand.New(rand.NewSource(3))
	ids := make([]uint64, 200)
	for i := range ids {
		ids[i] = uint64(rng.Intn(20))
	}
	for _, id := range ids {
		seq.Observe(id)
	}
	bat.ObserveBatch(ids)
	ss, bs := seq.Scores(), bat.Scores()
	for i := range ss {
		if ss[i] != bs[i] {
			t.Fatalf("score[%d] %v vs %v", i, ss[i], bs[i])
		}
	}
	_, si := seq.Active()
	_, bi := bat.Active()
	if si != bi {
		t.Fatalf("active index %d vs %d", si, bi)
	}
}
