package ostree

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The radix build must be the sort's build: FromWeights over ascending
// ids gives the head that a comparison sort's (key, id) order gives, for tied
// weights, weights that differ in every key byte, and the signed, zero
// and infinite corners of keyOf.
func TestRadixFromWeightsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := map[string]func() float64{
		"ties":       func() float64 { return float64(rng.Intn(4)) },
		"every byte": func() float64 { return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(1+rng.Intn(0x7fe))<<52) },
		"corners": func() float64 {
			cs := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, 1, math.SmallestNonzeroFloat64, -math.MaxFloat64}
			return cs[rng.Intn(len(cs))]
		},
	}
	for name, draw := range weights {
		for _, n := range []int{0, 1, 2, fillBlock + 1, 3000} {
			ps := make([]Pair, n)
			id := uint64(0)
			for i := range ps {
				id += 1 + uint64(rng.Int63n(1<<uint(rng.Intn(56))))
				ps[i] = Pair{id, draw()}
			}
			got := FromWeights(ps)
			want := make([]entry, n)
			for i, p := range ps {
				want[i] = entry{keyOf(p.Weight), p.ID}
			}
			slices.SortFunc(want, func(a, b entry) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id)) })
			if !slices.Equal(got.head, want) {
				t.Fatalf("%s, n=%d: radix head differs from the sort's", name, n)
			}
		}
	}
}

// SortByID is a stable sort by id: of a repeated id's pairs the last
// given stays last (Import keeps it), for ids that differ in every byte
// and for ids that already ascend.
func TestSortByIDIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 2, 500, 5000} {
		for _, ascending := range []bool{false, true} {
			ps := make([]Pair, n)
			for i := range ps {
				ps[i] = Pair{rng.Uint64() >> uint(rng.Intn(64)), float64(i)} // the weight numbers the input
				if i > 0 && rng.Intn(4) == 0 {
					ps[i].ID = ps[rng.Intn(i)].ID // a repeat
				}
			}
			if ascending {
				slices.SortStableFunc(ps, func(a, b Pair) int { return cmp.Compare(a.ID, b.ID) })
			}
			want := slices.Clone(ps)
			slices.SortStableFunc(want, func(a, b Pair) int { return cmp.Compare(a.ID, b.ID) })
			SortByID(ps)
			if !slices.Equal(ps, want) {
				t.Fatalf("n=%d ascending=%v: SortByID is not the stable sort", n, ascending)
			}
		}
	}
}
