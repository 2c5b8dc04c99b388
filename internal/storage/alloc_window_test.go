package storage

import "testing"

// TestScanDuringAllocateFindsTheAllocatorsFrame is the allocation-window
// regression: a scan bounded by NumPages that reaches a page while its
// allocation is still in flight must find the allocator's frame, not load
// a second frame for the same id from disk. With two frames for one page
// the committed rows land in one and a scan reads the other.
func TestScanDuringAllocateFindsTheAllocatorsFrame(t *testing.T) {
	// The pager counts a page only after its install callback ran: the
	// pool's frame is in its table before any scan can count the page.
	p := tempPager(t)
	if _, err := p.Allocate(func(id PageID) error {
		if n := p.NumPages(); n != id {
			t.Errorf("install of page %d sees %d pages counted, want %d", id, n, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h := tempHeap(t, 8)
	// Between the write set's Allocate and its Publish the page is
	// counted and private: a scan bounded by NumPages reaches it there.
	if err := h.write(func(ws *WriteSet) error {
		if _, err := h.InsertW(ws, []byte("committed")); err != nil {
			return err
		}
		n := h.NumPages()
		if n == 0 {
			t.Fatal("allocated page not counted")
		}
		_, _, err := h.pool.FetchAt(n-1, h.pool.Epoch())
		return err
	}); err != nil {
		t.Fatal(err)
	}
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
