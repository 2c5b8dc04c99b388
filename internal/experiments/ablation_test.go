package experiments

import (
	"testing"
	"time"
)

func TestAblationsProduceTable(t *testing.T) {
	p := DefaultAblationParams(t.TempDir())
	p.IDs = 2000
	p.Ops = 5000
	p.IOCost = 5 * time.Microsecond
	tab, err := Ablations(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 4 || row[1] == "" || row[2] == "" {
			t.Fatalf("malformed row %v", row)
		}
	}
}

func TestAblationsValidation(t *testing.T) {
	p := DefaultAblationParams(t.TempDir())
	p.IDs = 0
	if _, err := Ablations(p); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestAblationInflationBeatsRescanDecisively(t *testing.T) {
	p := DefaultAblationParams(t.TempDir())
	p.IDs = 5000
	p.Ops = 20000
	kept, err := timeDecayInflation(p)
	if err != nil {
		t.Fatal(err)
	}
	straw := timeDecayNaive(p)
	if straw < 20*kept {
		t.Fatalf("inflation %v vs rescan %v: expected ≥20x", kept, straw)
	}
}

func TestAblationRankIndexBeatsSortDecisively(t *testing.T) {
	p := DefaultAblationParams(t.TempDir())
	p.IDs = 5000
	p.Ops = 20000
	kept := timeRankTree(p)
	straw := timeRankSort(p)
	if straw < 20*kept {
		t.Fatalf("rank index %v vs sort %v: expected ≥20x", kept, straw)
	}
}
