package storage

import (
	"errors"
	"testing"
	"time"
)

// blocked reports whether done stays empty for a moment: the call behind
// it is waiting.
func blocked(done <-chan error) bool {
	select {
	case <-done:
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

// A miss whose stripe holds only a frame another statement pinned waits
// for the unpin, then succeeds.
func TestMissWaitsForAnotherStatementsPin(t *testing.T) {
	pool := tempPool(t, 1)
	id := pinnedPage(t, pool)
	done := make(chan error, 1)
	go func() {
		_, err := allocPage(pool, []byte("after"))
		done <- err
	}()
	if !blocked(done) {
		t.Fatalf("allocation beside another statement's pin returned at once: %v", <-done)
	}
	if err := pool.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("allocation after the unpin: %v", err)
	}
}

// A write whose stripe holds only frames a registered snapshot still
// reads waits for EndSnapshot, and so does a reader at an unregistered
// epoch, which holds nothing.
func TestMissWaitsForSnapshotEnd(t *testing.T) {
	pool, err := NewPoolShards(tempPager(t), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold := newPage(t, pool, []byte("cold"))
	other := newPage(t, pool, []byte("other"))
	resident := []PageID{newPage(t, pool), newPage(t, pool)} // evict cold and other
	snap := pool.BeginSnapshot()
	for _, id := range resident {
		ws := NewWriteSet(pool)
		if _, ok, err := ws.Acquire(id); err != nil || !ok {
			t.Fatalf("acquire %d: ok=%v err=%v", id, ok, err)
		}
		ws.MarkDirty(id)
		ws.Publish()
		ws.Release()
	}
	wrote, read := make(chan error, 1), make(chan error, 1)
	go func() {
		ws := NewWriteSet(pool)
		defer ws.Release()
		_, _, err := ws.Acquire(cold)
		wrote <- err
	}()
	go func() {
		_, _, err := pool.FetchAt(other, pool.Epoch())
		read <- err
	}()
	if !blocked(wrote) || !blocked(read) {
		t.Fatal("a miss on a stripe held for a snapshot did not wait")
	}
	pool.EndSnapshot(snap)
	if err := <-wrote; err != nil {
		t.Fatalf("write after EndSnapshot: %v", err)
	}
	if err := <-read; err != nil {
		t.Fatalf("read after EndSnapshot: %v", err)
	}
}

// The wait is bounded: past maxMissWait the miss fails as it would have
// without waiting.
func TestMissWaitIsBounded(t *testing.T) {
	defer func(d time.Duration) { maxMissWait = d }(maxMissWait)
	maxMissWait = 100 * time.Millisecond
	pool := tempPool(t, 1)
	id := pinnedPage(t, pool)
	defer pool.Unpin(id)
	start := time.Now()
	_, err := allocPage(pool)
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("allocation past the wait bound: err = %v, want ErrPoolExhausted", err)
	}
	if d := time.Since(start); d < maxMissWait {
		t.Fatalf("failed after %v, before the %v bound", d, maxMissWait)
	}
	if n := pool.waiters.Load(); n != 0 {
		t.Fatalf("%d waiters left counted", n)
	}
}

// An allocated page the file does not hold yet reads as a fresh page: its
// statement rolls back, eviction writes its first image (the page starts
// dirty), and the reload is an empty page. A page counted but never
// written reads fresh straight from the pager, past the file's end or in
// a hole a later page's write left.
func TestRolledBackAllocationReadsFresh(t *testing.T) {
	pool := tempPool(t, 1)
	ws := NewWriteSet(pool)
	id, pg, err := ws.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Insert([]byte("never committed")); err != nil {
		t.Fatal(err)
	}
	ws.Release() // no Publish: rolled back
	if _, w := pool.pager.Stats(); w != 0 {
		t.Fatalf("allocation wrote %d pages", w)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if _, w := pool.pager.Stats(); w != 1 {
		t.Fatalf("eviction of the fresh frame wrote %d pages, want 1", w)
	}
	got, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(id)
	if *got != *NewPage() {
		t.Fatal("rolled-back page does not read back as a fresh page")
	}

	p := tempPager(t)
	for range 3 {
		if _, err := p.Allocate(nil); err != nil {
			t.Fatal(err)
		}
	}
	last := NewPage()
	last.Insert([]byte("written"))
	if err := p.Write(2, last); err != nil { // leaves pages 0 and 1 a hole
		t.Fatal(err)
	}
	if _, err := p.Allocate(nil); err != nil { // page 3: past the file's end
		t.Fatal(err)
	}
	run := make([]byte, 4*PageSize)
	if err := p.ReadRun(0, run); err != nil {
		t.Fatal(err)
	}
	for i, want := range []*Page{NewPage(), NewPage(), last, NewPage()} {
		if *(*Page)(run[i*PageSize:]) != *want {
			t.Fatalf("page %d of the run reads %x…", i, run[i*PageSize:i*PageSize+8])
		}
	}
	if *freshPage != *NewPage() {
		t.Fatal("the shared fresh image was written into")
	}
}
