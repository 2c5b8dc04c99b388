package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestRegressedNeedsMedianAndNoOverlap(t *testing.T) {
	for _, c := range []struct {
		name             string
		base, cur        []float64
		fail, unresolved bool
	}{
		{"within tolerance", []float64{100, 101, 102}, []float64{110, 115, 119}, false, false},
		{"median past, rounds apart", []float64{100, 101, 102}, []float64{130, 150, 160}, true, false},
		{"median past, one round overlaps", []float64{100, 101, 140}, []float64{130, 150, 160}, false, true},
		{"faster", []float64{100, 101, 102}, []float64{50, 60, 70}, false, false},
		{"one sample each, past", []float64{100}, []float64{130}, true, false},
		{"one sample each, within", []float64{100}, []float64{119}, false, false},
	} {
		fail, unresolved := regressed(c.base, c.cur, 1.2)
		if fail != c.fail || unresolved != c.unresolved {
			t.Errorf("%s: fail %v unresolved %v, want %v %v", c.name, fail, unresolved, c.fail, c.unresolved)
		}
	}
}

func TestInvariantHoldsOnMedians(t *testing.T) {
	m := map[string][]float64{"a": {1, 2, 10}, "b": {2, 2, 2}}
	if holds, a, b, ok := (invariant{"a", "b", 1}).holds(m); !ok || !holds || a != 2 || b != 2 {
		t.Fatalf("a <= b: holds %v (%v, %v), ok %v; the outlier 10 must not decide it", holds, a, b, ok)
	}
	if holds, _, _, _ := (invariant{"a", "b", 0.9}).holds(m); holds {
		t.Fatal("a <= 0.9 b holds")
	}
	if _, _, _, ok := (invariant{"a", "c", 1}).holds(m); ok {
		t.Fatal("an invariant over a missing key was judged")
	}
}

func TestLoadTakesNumbersAndLists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte(`{"A": 3, "B": [5, 1, 4]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m["A"], []float64{3}) || !slices.Equal(m["B"], []float64{1, 4, 5}) || median(m["B"]) != 4 {
		t.Fatalf("load = %v", m)
	}
	if err := os.WriteFile(path, []byte(`{"A": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Fatal("an empty list loaded")
	}
}
