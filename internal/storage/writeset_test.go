package storage

import (
	"testing"
	"time"
)

// twoPages makes two pages (returned ascending), unpinned so write sets
// can latch them freely.
func twoPages(t *testing.T, pool *Pool) (lo, hi PageID) {
	t.Helper()
	return newPage(t, pool), newPage(t, pool)
}

// TestWriteSetAcquireOrderDiscipline pins the deadlock-freedom rule:
// a write set may block waiting for a latch only on a page numbered
// strictly above every page it already holds. Below that high-water
// mark a contended Acquire must report contention instead of blocking —
// the regression was an UPDATE whose primary-key chase latched a high
// page and then blocked on a lower one, closing a latch cycle with an
// ascending statement.
func TestWriteSetAcquireOrderDiscipline(t *testing.T) {
	pool := tempPool(t, 16)
	lo, hi := twoPages(t, pool)

	ws1 := NewWriteSet(pool)
	if _, ok, err := ws1.Acquire(hi); err != nil || !ok {
		t.Fatalf("first acquire of %d: ok=%v err=%v", hi, ok, err)
	}
	ws2 := NewWriteSet(pool)
	if _, ok, err := ws2.Acquire(lo); err != nil || !ok {
		t.Fatalf("acquire of %d: ok=%v err=%v", lo, ok, err)
	}

	// ws1 holds hi; lo is contended by ws2. Blocking here is exactly the
	// cycle the discipline forbids — Acquire must degrade to a try and
	// report contention promptly.
	if _, ok, err := ws1.Acquire(lo); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("acquired a latch ws2 holds")
	}

	// Ascending blocking still works: ws2 (holding lo) blocks on hi and
	// proceeds once ws1 releases.
	acquired := make(chan error, 1)
	go func() {
		_, ok, err := ws2.Acquire(hi)
		if err == nil && !ok {
			t.Error("ascending acquire above the high-water mark must block, not skip")
		}
		acquired <- err
	}()
	select {
	case <-acquired:
		t.Fatal("acquired a latch ws1 still holds")
	case <-time.After(20 * time.Millisecond):
	}
	ws1.Release()
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	ws2.Release()

	// Below the mark but uncontended: the try succeeds.
	ws3 := NewWriteSet(pool)
	defer ws3.Release()
	if _, ok, err := ws3.Acquire(hi); err != nil || !ok {
		t.Fatalf("acquire of %d: ok=%v err=%v", hi, ok, err)
	}
	if _, ok, err := ws3.Acquire(lo); err != nil || !ok {
		t.Fatalf("uncontended below-mark acquire: ok=%v err=%v", ok, err)
	}
}
