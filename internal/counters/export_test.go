package counters

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	d, _ := NewDecayed(1)
	for i := 0; i < 7; i++ {
		d.Observe(1)
	}
	for i := 0; i < 3; i++ {
		d.Observe(2)
	}
	ids, counts := d.Export()
	if len(ids) != 2 || ids[0] != 1 || counts[0] != 7 || counts[1] != 3 {
		t.Fatalf("export = %v %v", ids, counts)
	}

	fresh, _ := NewDecayed(1)
	if err := fresh.Import(ids, counts); err != nil {
		t.Fatal(err)
	}
	if fresh.Count(1) != 7 || fresh.Count(2) != 3 {
		t.Fatalf("imported counts = %v, %v", fresh.Count(1), fresh.Count(2))
	}
	if fresh.Rank(1) != 1 || fresh.Rank(2) != 2 {
		t.Fatal("imported ranks wrong")
	}
	if fresh.MaxCount() != 7 {
		t.Fatalf("imported MaxCount = %v", fresh.MaxCount())
	}
	// Popularities normalized.
	if math.Abs(fresh.Popularity(1)-0.7) > 1e-12 {
		t.Fatalf("imported popularity = %v", fresh.Popularity(1))
	}
}

func TestExportAfterDecayGivesDecayedCounts(t *testing.T) {
	d, _ := NewDecayed(2)
	d.ObserveNoDecay(1)
	d.Tick() // count halves
	_, counts := d.Export()
	if counts[0] != 0.5 {
		t.Fatalf("decayed export = %v", counts[0])
	}
}

func TestImportValidation(t *testing.T) {
	d, _ := NewDecayed(1)
	if err := d.Import([]uint64{1}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Bad values skipped, not fatal.
	if err := d.Import([]uint64{1, 2, 3, 4}, []float64{5, -1, math.NaN(), math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Count(1) != 5 {
		t.Fatalf("after import: len=%d count=%v", d.Len(), d.Count(1))
	}
}

func TestRemove(t *testing.T) {
	d, _ := NewDecayed(1)
	for i := 0; i < 4; i++ {
		d.Observe(1)
	}
	d.Observe(2)
	if !d.Remove(1) {
		t.Fatal("Remove(tracked) = false")
	}
	if d.Remove(1) || d.Remove(99) {
		t.Fatal("Remove(untracked) = true")
	}
	if d.Count(1) != 0 || d.Len() != 1 {
		t.Fatalf("after remove: count=%v len=%d", d.Count(1), d.Len())
	}
	// Remaining tuple now holds all popularity mass and rank 1.
	if d.Popularity(2) != 1 || d.Rank(2) != 1 {
		t.Fatalf("pop=%v rank=%d", d.Popularity(2), d.Rank(2))
	}
}

func TestImportReplacesPriorState(t *testing.T) {
	d, _ := NewDecayed(1)
	d.Observe(42)
	if err := d.Import([]uint64{7}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if d.Count(42) != 0 {
		t.Fatal("old state survived import")
	}
	if d.Len() != 1 {
		t.Fatalf("len = %d", d.Len())
	}
	// Tracker remains usable after import.
	d.Observe(7)
	if d.Count(7) != 3 {
		t.Fatalf("count after import+observe = %v", d.Count(7))
	}
}

// A repeated id's last count wins and is counted once: before the bulk
// build, both counts went into the total and the observation count.
func TestImportRepeatedIDCountedOnce(t *testing.T) {
	d, _ := NewDecayed(1)
	if err := d.Import([]uint64{1, 2, 1, 1}, []float64{5, 6, 9, 2}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Observations() != 2 {
		t.Fatalf("len %d, observations %d; want 2, 2", d.Len(), d.Observations())
	}
	if d.Count(1) != 2 || d.Rank(1) != 2 || d.Rank(2) != 1 {
		t.Fatalf("count(1) %v, rank(1) %d, rank(2) %d", d.Count(1), d.Rank(1), d.Rank(2))
	}
	if got := d.Popularity(1); got != 0.25 {
		t.Fatalf("popularity(1) = %v, want 0.25", got)
	}
	if got := d.MaxPopularity(); got != 0.75 {
		t.Fatalf("max popularity = %v, want 0.75", got)
	}
}

// The bulk-built index must be the one the equivalent upserts build.
func TestImportMatchesUpserts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ids []uint64
	var counts []float64
	for i := 0; i < 3000; i++ {
		ids = append(ids, uint64(rng.Intn(2000)))      // repeats
		counts = append(counts, float64(rng.Intn(12))) // heavy ties, some 0 (skipped)
		if i%5 == 0 {
			counts[i] += rng.Float64()
		}
	}
	bulk, _ := NewDecayed(1.01)
	if err := bulk.Import(ids, counts); err != nil {
		t.Fatal(err)
	}
	each, _ := NewDecayed(1.01)
	for i, id := range ids {
		if counts[i] > 0 {
			each.tree.Upsert(id, counts[i])
		}
	}
	bi, bc := bulk.Export()
	ei, ec := each.Export()
	if !slices.Equal(bi, ei) || !slices.Equal(bc, ec) {
		t.Fatal("Export differs between Import and the equivalent upserts")
	}
	if bulk.MaxCount() != each.MaxCount() {
		t.Fatalf("MaxCount %v vs %v", bulk.MaxCount(), each.MaxCount())
	}
	for id := uint64(0); id < 2000; id++ {
		if bulk.Rank(id) != each.Rank(id) {
			t.Fatalf("rank(%d) %d vs %d", id, bulk.Rank(id), each.Rank(id))
		}
	}
	// And it keeps learning like any other.
	bulk.ObserveBatch(ids[:500])
	each.ObserveBatch(ids[:500])
	for id := uint64(0); id < 2000; id++ {
		if bulk.Rank(id) != each.Rank(id) {
			t.Fatalf("after observing: rank(%d) %d vs %d", id, bulk.Rank(id), each.Rank(id))
		}
	}
}
