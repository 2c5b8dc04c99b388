package storage

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// checkTable asserts what the frame table promises under the shard
// mutex: it holds exactly the clock's frames, each findable by its id.
func checkTable(t *testing.T, sh *poolShard) {
	t.Helper()
	n := 0
	for i := range sh.slots {
		if sh.slots[i].Load() != nil {
			n++
		}
	}
	if n != len(sh.clock) {
		t.Fatalf("table holds %d frames, clock %d", n, len(sh.clock))
	}
	for _, f := range sh.clock {
		if sh.lookup(f.id) != f {
			t.Fatalf("page %d is in the clock but lookup does not find it", f.id)
		}
	}
}

// TestFrameTableInsertRemove drives a stripe's table through random
// inserts and removes at full load — long probe runs, runs that wrap the
// end of the array, gaps closed in the middle of a run — and checks after
// every step that every resident frame is still found and no other is.
func TestFrameTableInsertRemove(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 50} {
		pool, err := NewPoolShards(tempPager(t), capacity, 1)
		if err != nil {
			t.Fatal(err)
		}
		sh := &pool.shards[0]
		rng := rand.New(rand.NewSource(int64(capacity)))
		resident := map[PageID]bool{}
		for step := 0; step < 4000; step++ {
			// Ids from a small range collide on home slots; a few large
			// ones land near the end of the array.
			id := PageID(rng.Intn(4 * capacity))
			if rng.Intn(8) == 0 {
				id = PageID(rng.Uint32())
			}
			switch {
			case resident[id]:
				sh.remove(slices.IndexFunc(sh.clock, func(f *frame) bool { return f.id == id }))
				delete(resident, id)
			case len(sh.clock) < sh.cap:
				sh.insert(newFrame(id, nil, 0))
				resident[id] = true
			}
			checkTable(t, sh)
			if f := sh.lookup(id); (f != nil) != resident[id] {
				t.Fatalf("cap %d step %d: lookup(%d) = %v, resident %v", capacity, step, id, f, resident[id])
			}
		}
	}
}

// TestPoolMissPublishesOnce: a miss on a full stripe evicts exactly one
// frame and replaces nothing — the stripe's table is updated in place,
// the same array before and after, where it used to be copied twice.
// Lock-free readers racing the eviction either still get the victim's
// immutable page or fall to the slow path and reload it; either way they
// read the page's own bytes, and a reader holding the victim's page from
// before keeps reading them afterwards.
func TestPoolMissPublishesOnce(t *testing.T) {
	pool, err := NewPoolShards(tempPager(t), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := &pool.shards[0]
	var ids []PageID
	for i := 0; i < 24; i++ {
		ids = append(ids, newPage(t, pool, []byte{byte(i)}))
	}
	own := func(id PageID) byte { return byte(slices.Index(ids, id)) }
	for _, id := range ids[:8] { // fill the stripe
		if _, _, err := pool.FetchAt(id, pool.Epoch()); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Resident() != 8 {
		t.Fatalf("resident %d, want a full stripe of 8", pool.Resident())
	}
	table := &sh.slots[0]
	held, _, err := pool.FetchAt(ids[0], pool.Epoch())
	if err != nil {
		t.Fatal(err)
	}

	_, _, evictsBefore := pool.Stats()
	if _, _, err := pool.FetchAt(ids[8], pool.Epoch()); err != nil {
		t.Fatal(err)
	}
	if _, _, evicts := pool.Stats(); evicts != evictsBefore+1 {
		t.Fatalf("one miss on a full stripe evicted %d frames, want 1", evicts-evictsBefore)
	}
	if &sh.slots[0] != table || pool.Resident() != 8 {
		t.Fatalf("the miss replaced the table or changed residency (%d resident)", pool.Resident())
	}
	checkTable(t, sh)

	// Readers over all 24 pages of an 8-frame stripe: every fetch races
	// somebody's eviction.
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000 && !stop.Load(); i++ {
				id := ids[rng.Intn(len(ids))]
				var pg *Page
				var err error
				if w%2 == 0 {
					pg, _, err = pool.FetchAt(id, pool.Epoch())
				} else if pg, err = pool.Fetch(id); err == nil {
					err = pool.Unpin(id)
				}
				if err != nil {
					t.Error(err)
					stop.Store(true)
					return
				}
				if r, _ := pg.Record(0); len(r) != 1 || r[0] != own(id) {
					t.Errorf("page %d read %v, want [%d]", id, r, own(id))
					stop.Store(true)
					return
				}
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	if r, _ := held.Record(0); len(r) != 1 || r[0] != own(ids[0]) {
		t.Fatalf("a page held across its eviction now reads %v", r)
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("pinned = %d after balanced readers", n)
	}
	sh.mu.Lock()
	checkTable(t, sh)
	sh.mu.Unlock()
}
