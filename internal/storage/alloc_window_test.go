package storage

import "testing"

// TestScanDuringAllocateFindsTheAllocatorsFrame is the allocation-window
// regression: a scan bounded by NumPages that reaches a page while its
// allocation is still in flight must find the allocator's frame, not load
// a second frame for the same id from disk. With two frames for one page
// the committed rows land in one and a scan reads the other.
func TestScanDuringAllocateFindsTheAllocatorsFrame(t *testing.T) {
	h := tempHeap(t, 8)
	// The I/O hook runs inside Pager.Allocate once the new page is
	// written: the moment a concurrent scan could first count the page.
	armed := false
	h.pool.pager.SetIOCost(func() {
		if !armed {
			return
		}
		armed = false
		if n := h.NumPages(); n > 0 {
			if _, _, err := h.pool.FetchAt(n-1, h.pool.Epoch()); err != nil {
				t.Error(err)
			}
		}
	})
	armed = true
	if _, err := h.Insert([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	h.pool.pager.SetIOCost(nil)
	if n := h.pool.Resident(); n != 1 {
		t.Errorf("%d frames resident for one page, want 1", n)
	}
	var seen []string
	if err := h.Scan(func(_ RID, rec []byte) bool {
		seen = append(seen, string(rec))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "committed" {
		t.Fatalf("scan after commit = %q, want [committed]", seen)
	}
}
