package ostree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if r, ok := tr.Rank(42); ok || r != 1 {
		t.Fatalf("Rank on empty = %d, %v", r, ok)
	}
	if _, ok := tr.KthID(1); ok {
		t.Fatal("KthID on empty returned ok")
	}
	if _, ok := tr.MaxWeight(); ok {
		t.Fatal("MaxWeight on empty returned ok")
	}
	if tr.Delete(1) {
		t.Fatal("Delete on empty returned true")
	}
}

func TestUpsertAndRank(t *testing.T) {
	tr := New()
	tr.Upsert(10, 5.0)
	tr.Upsert(20, 9.0)
	tr.Upsert(30, 1.0)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	check := func(id uint64, want int) {
		t.Helper()
		r, ok := tr.Rank(id)
		if !ok || r != want {
			t.Fatalf("Rank(%d) = %d, %v; want %d", id, r, ok, want)
		}
	}
	check(20, 1)
	check(10, 2)
	check(30, 3)

	// Update weight; rank shifts.
	tr.Upsert(30, 100.0)
	check(30, 1)
	check(20, 2)
	check(10, 3)
	if tr.Len() != 3 {
		t.Fatalf("Len after update = %d", tr.Len())
	}
}

func TestUpsertSameWeightNoop(t *testing.T) {
	tr := New()
	tr.Upsert(1, 2.5)
	tr.Upsert(1, 2.5)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestAbsentRankIsLenPlusOne(t *testing.T) {
	tr := New()
	tr.Upsert(1, 1)
	tr.Upsert(2, 2)
	r, ok := tr.Rank(999)
	if ok || r != 3 {
		t.Fatalf("absent rank = %d, %v; want 3, false", r, ok)
	}
}

func TestTieBreakByID(t *testing.T) {
	tr := New()
	tr.Upsert(7, 5.0)
	tr.Upsert(3, 5.0)
	tr.Upsert(5, 5.0)
	r3, _ := tr.Rank(3)
	r5, _ := tr.Rank(5)
	r7, _ := tr.Rank(7)
	if r3 != 1 || r5 != 2 || r7 != 3 {
		t.Fatalf("tie ranks = %d, %d, %d", r3, r5, r7)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	tr.Upsert(1, 10)
	tr.Upsert(2, 20)
	tr.Upsert(3, 30)
	if !tr.Delete(2) {
		t.Fatal("Delete(2) = false")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Contains(2) {
		t.Fatal("deleted id still present")
	}
	r1, _ := tr.Rank(1)
	r3, _ := tr.Rank(3)
	if r3 != 1 || r1 != 2 {
		t.Fatalf("ranks after delete = %d, %d", r1, r3)
	}
	if tr.Delete(2) {
		t.Fatal("double delete returned true")
	}
}

func TestKthID(t *testing.T) {
	tr := New()
	for i := uint64(1); i <= 10; i++ {
		tr.Upsert(i, float64(i))
	}
	// Rank 1 = id 10 (heaviest).
	for k := 1; k <= 10; k++ {
		id, ok := tr.KthID(k)
		if !ok || id != uint64(11-k) {
			t.Fatalf("KthID(%d) = %d, %v", k, id, ok)
		}
	}
	if _, ok := tr.KthID(0); ok {
		t.Fatal("KthID(0) ok")
	}
	if _, ok := tr.KthID(11); ok {
		t.Fatal("KthID(11) ok")
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	tr := New()
	tr.Upsert(1, 3)
	tr.Upsert(2, 1)
	tr.Upsert(3, 2)
	var ids []uint64
	var ranks []int
	tr.Ascend(func(rank int, id uint64, w float64) bool {
		ranks = append(ranks, rank)
		ids = append(ids, id)
		return true
	})
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 2 {
		t.Fatalf("Ascend order = %v", ids)
	}
	for i, r := range ranks {
		if r != i+1 {
			t.Fatalf("ranks = %v", ranks)
		}
	}
	var n int
	tr.Ascend(func(rank int, id uint64, w float64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScaleAllPreservesOrder(t *testing.T) {
	tr := New()
	for i := uint64(1); i <= 100; i++ {
		tr.Upsert(i, float64(i*i))
	}
	before := make([]uint64, 0, 100)
	tr.Ascend(func(_ int, id uint64, _ float64) bool {
		before = append(before, id)
		return true
	})
	tr.ScaleAll(1e-50)
	after := make([]uint64, 0, 100)
	tr.Ascend(func(_ int, id uint64, _ float64) bool {
		after = append(after, id)
		return true
	})
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("order changed at %d", i)
		}
	}
	w, ok := tr.Weight(10)
	if !ok || w != 100*1e-50 {
		t.Fatalf("scaled weight = %v", w)
	}
}

func TestScaleAllPanicsOnNonPositive(t *testing.T) {
	tr := New()
	tr.Upsert(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.ScaleAll(0)
}

func TestMaxWeight(t *testing.T) {
	tr := New()
	tr.Upsert(1, 5)
	tr.Upsert(2, 50)
	tr.Upsert(3, 0.5)
	w, ok := tr.MaxWeight()
	if !ok || w != 50 {
		t.Fatalf("MaxWeight = %v, %v", w, ok)
	}
}

// TestAgainstReferenceModel drives the index and a naive sorted-slice model
// with the same random operations and compares every rank.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	model := map[uint64]float64{}

	modelRank := func(id uint64) int {
		w := model[id]
		rank := 1
		for oid, ow := range model {
			if ow > w || (ow == w && oid < id) {
				rank++
			}
		}
		return rank
	}

	for step := 0; step < 5000; step++ {
		id := uint64(rng.Intn(200))
		switch rng.Intn(3) {
		case 0, 1: // upsert
			w := float64(rng.Intn(50))
			tr.Upsert(id, w)
			model[id] = w
		case 2: // delete
			got := tr.Delete(id)
			_, want := model[id]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, id, got, want)
			}
			delete(model, id)
		}
		if tr.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model = %d", step, tr.Len(), len(model))
		}
	}
	for id := range model {
		got, ok := tr.Rank(id)
		if !ok {
			t.Fatalf("id %d missing", id)
		}
		if want := modelRank(id); got != want {
			t.Fatalf("Rank(%d) = %d, want %d", id, got, want)
		}
	}
}

// TestRankKthInverse checks Rank(KthID(k)) == k as a property.
func TestRankKthInverse(t *testing.T) {
	f := func(weights []float64) bool {
		tr := New()
		for i, w := range weights {
			tr.Upsert(uint64(i), w)
		}
		for k := 1; k <= tr.Len(); k++ {
			id, ok := tr.KthID(k)
			if !ok {
				return false
			}
			r, ok := tr.Rank(id)
			if !ok || r != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAscendMatchesSort(t *testing.T) {
	tr := New()
	type item struct {
		id uint64
		w  float64
	}
	var items []item
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		it := item{id: uint64(i), w: float64(rng.Intn(100))}
		items = append(items, it)
		tr.Upsert(it.id, it.w)
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].w != items[b].w {
			return items[a].w > items[b].w
		}
		return items[a].id < items[b].id
	})
	i := 0
	tr.Ascend(func(rank int, id uint64, w float64) bool {
		if items[i].id != id || items[i].w != w {
			t.Fatalf("position %d: got (%d,%v), want (%d,%v)", i, id, w, items[i].id, items[i].w)
		}
		i++
		return true
	})
	if i != len(items) {
		t.Fatalf("visited %d of %d", i, len(items))
	}
}
