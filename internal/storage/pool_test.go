package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

func osCreate(path string) (*os.File, error) { return os.Create(path) }

func tempPool(t *testing.T, capacity int) *Pool {
	t.Helper()
	pager := tempPager(t)
	pool, err := NewPool(pager, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// allocPage commits one new page holding recs through a write set — the
// only way a page is made, or made dirty — and returns its id, unpinned.
func allocPage(pool *Pool, recs ...[]byte) (PageID, error) {
	ws := NewWriteSet(pool)
	defer ws.Release()
	id, pg, err := ws.Allocate()
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if _, err := pg.Insert(rec); err != nil {
			return 0, err
		}
	}
	ws.Publish()
	return id, nil
}

// newPage is allocPage for set-up that must not fail.
func newPage(t testing.TB, pool *Pool, recs ...[]byte) PageID {
	t.Helper()
	id, err := allocPage(pool, recs...)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// pinnedPage is newPage with one pin held on the page.
func pinnedPage(t testing.TB, pool *Pool) PageID {
	t.Helper()
	id := newPage(t, pool)
	if _, err := pool.Fetch(id); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, 4); err == nil {
		t.Fatal("nil pager accepted")
	}
	pager := tempPager(t)
	if _, err := NewPool(pager, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

func TestPoolAllocateFetchUnpin(t *testing.T) {
	pool := tempPool(t, 4)
	id := newPage(t, pool, []byte("cached"))
	// Fetch hits cache.
	got, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := got.Record(0); string(r) != "cached" {
		t.Fatalf("fetched: %q", r)
	}
	pool.Unpin(id)
	hits, misses, _ := pool.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	pool := tempPool(t, 2)
	// Fill three pages through a pool of two frames.
	var ids []PageID
	for i := 0; i < 3; i++ {
		ids = append(ids, newPage(t, pool, []byte(fmt.Sprintf("page-%d", i))))
	}
	if pool.Resident() > 2 {
		t.Fatalf("Resident = %d", pool.Resident())
	}
	// All three pages readable with correct content (evicted ones were
	// written back).
	for i, id := range ids {
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pg.Record(0)
		if err != nil || string(r) != fmt.Sprintf("page-%d", i) {
			t.Fatalf("page %d: %q, %v", id, r, err)
		}
		pool.Unpin(id)
	}
	_, _, evicts := pool.Stats()
	if evicts == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestPoolPinnedPagesNotEvicted(t *testing.T) {
	pool := tempPool(t, 2)
	id0 := pinnedPage(t, pool) // stays pinned
	newPage(t, pool)
	// Allocating a third page must evict the second, not pinned id0.
	newPage(t, pool)
	// id0 still resident and usable.
	pg, err := pool.Fetch(id0)
	if err != nil {
		t.Fatal(err)
	}
	_ = pg
	pool.Unpin(id0)
	pool.Unpin(id0) // release original pin
	hits, _, _ := pool.Stats()
	if hits == 0 {
		t.Fatal("pinned page was not cached")
	}
}

func TestPoolAllFramesPinnedErrors(t *testing.T) {
	pool := tempPool(t, 1)
	pinnedPage(t, pool)
	_, err := allocPage(pool)
	if !errors.Is(err, ErrPoolExhausted) || errors.Is(err, ErrIO) {
		t.Fatalf("allocation with all frames pinned: err = %v, want ErrPoolExhausted and not ErrIO", err)
	}
	if n := pool.Pinned(); n != 1 {
		t.Fatalf("Pinned = %d after the failed allocation, want the 1 the test holds", n)
	}
}

// TestPoolExhaustedNamesSnapshotHeldFrames: a frame whose older
// versions a registered snapshot still reads cannot be evicted any more
// than a pinned one, and the error says which of the two stopped the
// sweep. Once the snapshot ends, the same miss evicts.
func TestPoolExhaustedNamesSnapshotHeldFrames(t *testing.T) {
	pool, err := NewPoolShards(tempPager(t), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold := newPage(t, pool, []byte("cold"))
	resident := []PageID{newPage(t, pool), newPage(t, pool)} // evicts cold
	snap := pool.BeginSnapshot()
	for _, id := range resident {
		ws := NewWriteSet(pool)
		pg, ok, err := ws.Acquire(id)
		if err != nil || !ok {
			t.Fatalf("acquire %d: ok=%v err=%v", id, ok, err)
		}
		if _, err := pg.Insert([]byte("new")); err != nil {
			t.Fatal(err)
		}
		ws.MarkDirty(id)
		ws.Publish()
		ws.Release()
	}
	_, _, err = pool.FetchAt(cold, pool.Epoch())
	if !errors.Is(err, ErrPoolExhausted) || errors.Is(err, ErrIO) {
		t.Fatalf("miss with every frame feeding a snapshot: err = %v, want ErrPoolExhausted and not ErrIO", err)
	}
	for _, want := range []string{"0 pinned", "2 holding page versions a registered snapshot still reads"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	pool.EndSnapshot(snap)
	pg, vis, err := pool.FetchAt(cold, pool.Epoch())
	if err != nil || !vis {
		t.Fatalf("the same miss after EndSnapshot: vis=%v err=%v", vis, err)
	}
	if rec, err := pg.Record(0); err != nil || string(rec) != "cold" {
		t.Fatalf("cold page reads %q, %v", rec, err)
	}
}

func TestPoolUnpinErrors(t *testing.T) {
	pool := tempPool(t, 2)
	if err := pool.Unpin(42); err == nil {
		t.Fatal("unpin of non-resident page accepted")
	}
	id := pinnedPage(t, pool)
	pool.Unpin(id)
	if err := pool.Unpin(id); err == nil {
		t.Fatal("double unpin accepted")
	}
}

func TestPoolFlushAllPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.db")
	pager, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := NewPool(pager, 4)
	id := newPage(t, pool, []byte("flushed"))
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pager.Close()

	pager2, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pager2.Close()
	got := NewPage()
	if err := pager2.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if r, _ := got.Record(0); string(r) != "flushed" {
		t.Fatalf("lost flush: %q", r)
	}
}

func TestPoolDropAllColdCache(t *testing.T) {
	pool := tempPool(t, 8)
	id := newPage(t, pool, []byte("x"))
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if pool.Resident() != 0 {
		t.Fatalf("Resident after DropAll = %d", pool.Resident())
	}
	// Next fetch is a miss but data survives.
	got, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := got.Record(0); string(r) != "x" {
		t.Fatal("DropAll lost dirty data")
	}
	pool.Unpin(id)
	_, misses, _ := pool.Stats()
	if misses == 0 {
		t.Fatal("fetch after DropAll was not a miss")
	}
}

func TestPoolConcurrentFetch(t *testing.T) {
	pool := tempPool(t, 4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		ids = append(ids, newPage(t, pool, []byte{byte(i)}))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(w+i)%len(ids)]
				pg, err := pool.Fetch(id)
				if err != nil {
					t.Error(err)
					return
				}
				if r, _ := pg.Record(0); r[0] != byte(id) {
					t.Errorf("page %d content %v", id, r)
				}
				if err := pool.Unpin(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A frame found pinned on the sweep's first lap and unpinned (but
// referenced) on its second is a victim on the third; the sweep must not
// report "all frames pinned" before it gets there. The clock is
// [pinned, x, r, held]: held carries a version chain a snapshot still
// reads, so the sweep stops on the pool's version mutex when it reaches
// it — the test holds that mutex, and r's reference bit going down tells
// it the hand has already passed x. It then pins r and releases x, which
// leaves x the only frame that can ever go.
func TestPoolEvictsFrameUnpinnedMidSweep(t *testing.T) {
	pool := tempPool(t, 4) // one shard: exact clock order
	var ids [4]PageID
	for i := range ids {
		ids[i] = pinnedPage(t, pool)
	}
	x, r, held := ids[1], ids[2], ids[3]
	sh := pool.shard(x)
	frameOf := func(id PageID) *frame { return sh.lookup(id) }

	snap := pool.BeginSnapshot()
	defer pool.EndSnapshot(snap)
	ws := NewWriteSet(pool)
	if _, _, err := ws.Acquire(held); err != nil {
		t.Fatal(err)
	}
	ws.MarkDirty(held)
	ws.Publish()
	ws.Release()
	for _, id := range []PageID{r, held} {
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	frameOf(held).ref.Store(false)
	rf := frameOf(r)
	sh.hand = 0

	pool.verMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := allocPage(pool)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); rf.ref.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			pool.verMu.Unlock()
			t.Fatal("the sweep never reached the referenced frame")
		}
	}
	if _, err := pool.Fetch(r); err != nil {
		t.Error(err)
	}
	if err := pool.Unpin(x); err != nil {
		t.Error(err)
	}
	pool.verMu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("allocation with an unpinned frame in the pool: %v", err)
	}
	if frameOf(x) != nil {
		t.Fatal("the frame unpinned mid-sweep is still resident")
	}
	for _, id := range []PageID{ids[0], r, held} {
		if frameOf(id) == nil {
			t.Fatalf("page %d was evicted; only page %d could go", id, x)
		}
	}
}

// A failed eviction write-back must not lose the dirty frame: the
// in-memory bytes are the only copy of the data, so the frame has to be
// un-condemned, stay resident and pinnable, and the write-back must be
// retryable once I/O recovers. (Regression: the sweep used to leave the
// victim condemned in the published map, so the dirty page could never
// be pinned again and a later fetch served stale disk bytes from a
// duplicate frame.)
func TestPoolEvictionWriteBackFailureKeepsDirtyFrame(t *testing.T) {
	pool := tempPool(t, 2)
	var ids []PageID
	for i := 0; i < 2; i++ {
		ids = append(ids, newPage(t, pool, []byte(fmt.Sprintf("dirty-%d", i))))
	}

	// After:1 lets the allocation's own file-extension write through so the
	// injected error lands on the eviction write-back itself.
	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{
		Site: fault.PagerWrite, Kind: fault.Error, After: 1, Count: 1,
	}))
	defer fault.Disable()
	if _, err := allocPage(pool); !errors.Is(err, ErrIO) {
		t.Fatalf("eviction with failing write-back: err = %v, want ErrIO", err)
	}
	fault.Disable()

	// Both dirty frames are still resident, pinnable, and serve their
	// in-memory (never persisted) contents.
	if got := pool.Resident(); got != 2 {
		t.Fatalf("Resident = %d after failed eviction, want 2", got)
	}
	for i, id := range ids {
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d after failed eviction: %v", id, err)
		}
		if r, _ := pg.Record(0); string(r) != fmt.Sprintf("dirty-%d", i) {
			t.Fatalf("page %d content %q after failed eviction", id, r)
		}
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.Pinned(); got != 0 {
		t.Fatalf("Pinned = %d, want 0", got)
	}

	// With I/O healthy again the retried eviction writes the victim back.
	id3, err := allocPage(pool, []byte("dirty-2"))
	if err != nil {
		t.Fatalf("retried eviction: %v", err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	for i, id := range append(ids, id3) {
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d from disk: %v", id, err)
		}
		if r, _ := pg.Record(0); string(r) != fmt.Sprintf("dirty-%d", i) {
			t.Fatalf("page %d persisted content %q", id, r)
		}
		pool.Unpin(id)
	}
}

// TestFetchAtHitEarnsSecondChance: FetchAt is the read every SELECT
// makes, so its hit must refresh the clock's reference bit. A page
// re-read between sweeps then outlives any number of cold fetches; when
// only tryPin refreshed the bit, the hand cleared it on one lap and
// evicted the page on the next however often it had been read — the
// clock was a FIFO for reads.
func TestFetchAtHitEarnsSecondChance(t *testing.T) {
	const capacity = 8
	pool := tempPool(t, capacity) // one shard: exact clock order
	var ids []PageID
	for i := 0; i < 6*capacity; i++ {
		ids = append(ids, newPage(t, pool))
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	readAt := func(id PageID) {
		t.Helper()
		if _, vis, err := pool.FetchAt(id, pool.Epoch()); err != nil || !vis {
			t.Fatalf("FetchAt(%d): visible=%v err=%v", id, vis, err)
		}
	}
	// coldFetches reads each page of cold once, re-reading hot after
	// every one, and returns how often hot itself missed.
	hot := ids[0]
	coldFetches := func(cold []PageID) int64 {
		_, before, _ := pool.Stats()
		for _, id := range cold {
			readAt(id)
			readAt(hot)
		}
		_, after, _ := pool.Stats()
		return after - before - int64(len(cold))
	}
	// Fill the pool and run the hand through its first lap, which finds
	// every frame referenced and so falls back to insertion order.
	readAt(hot)
	coldFetches(ids[1 : 2*capacity])
	// From here the hand always finds an unreferenced cold page first.
	if n := coldFetches(ids[2*capacity:]); n != 0 {
		t.Fatalf("a page re-read after every cold fetch was evicted %d times in %d fetches", n, len(ids)-2*capacity)
	}
	if _, _, evicts := pool.Stats(); evicts < int64(len(ids)-capacity-1) {
		t.Fatalf("%d evictions: the clock never swept", evicts)
	}
}
