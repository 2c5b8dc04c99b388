package storage

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardCount(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {8, 1}, {15, 1},
		{16, 2}, {31, 2},
		{32, 4}, {64, 8},
		{128, 16}, {256, 16}, {4096, 16},
	}
	for _, c := range cases {
		if got := shardCount(c.capacity); got != c.want {
			t.Errorf("shardCount(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

func TestNewPoolShardsValidation(t *testing.T) {
	pager := tempPager(t)
	if _, err := NewPoolShards(pager, 16, 3); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
	if _, err := NewPoolShards(pager, 2, 4); err == nil {
		t.Fatal("shards > capacity accepted")
	}
	pool, err := NewPoolShards(pager, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Shards() != 4 {
		t.Fatalf("Shards() = %d", pool.Shards())
	}
	// Shard caps must sum exactly to the configured capacity.
	sum := 0
	for i := range pool.shards {
		sum += pool.shards[i].cap
	}
	if sum != 10 {
		t.Fatalf("shard caps sum to %d, want 10", sum)
	}
}

func TestPoolDefaultCapacityIsStriped(t *testing.T) {
	pool := tempPool(t, 256)
	if pool.Shards() != 16 {
		t.Fatalf("256-frame pool has %d shards, want 16", pool.Shards())
	}
}

// TestPoolStripedEviction fills a multi-shard pool far past capacity and
// checks the invariants striping must preserve: residency never exceeds
// capacity, every page reads back its own contents (dirty victims were
// written back), and evictions happened on multiple shards.
func TestPoolStripedEviction(t *testing.T) {
	pager := tempPager(t)
	pool, err := NewPoolShards(pager, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 64
	ids := make([]PageID, pages)
	for i := 0; i < pages; i++ {
		ids[i] = newPage(t, pool, []byte(fmt.Sprintf("page-%d", i)))
		if r := pool.Resident(); r > 16 {
			t.Fatalf("resident %d exceeds capacity after %d allocs", r, i+1)
		}
	}
	_, _, evicts := pool.Stats()
	if evicts < pages-16 {
		t.Fatalf("evicts = %d, want >= %d", evicts, pages-16)
	}
	for i, id := range ids {
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if r, _ := pg.Record(0); string(r) != fmt.Sprintf("page-%d", i) {
			t.Fatalf("page %d read back %q", id, r)
		}
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolClockSecondChance pins down the replacement policy on a
// single-shard pool: a page re-referenced since the last sweep survives
// eviction while an un-referenced page is the victim, regardless of
// insertion order.
func TestPoolClockSecondChance(t *testing.T) {
	pager := tempPager(t)
	pool, err := NewPoolShards(pager, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func() PageID { return newPage(t, pool) }
	touch := func(id PageID) {
		t.Helper()
		if _, err := pool.Fetch(id); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	p0, p1, p2 := alloc(), alloc(), alloc()
	// First eviction sweeps away every ref bit, then takes p0.
	p3 := alloc()
	// p1's ref bit is set again; p2's and p3's are still clear. The next
	// eviction must take p2, not p1.
	touch(p1)
	p4 := alloc()
	_, _, evicts := pool.Stats()
	if evicts != 2 {
		t.Fatalf("evicts = %d, want 2", evicts)
	}
	h0, m0, _ := pool.Stats()
	touch(p1) // must still be resident
	touch(p4)
	touch(p3)
	h1, m1, _ := pool.Stats()
	if m1 != m0 || h1 != h0+3 {
		t.Fatalf("re-referenced page was evicted: hits %d->%d misses %d->%d (p0=%d p1=%d p2=%d p3=%d p4=%d)",
			h0, h1, m0, m1, p0, p1, p2, p3, p4)
	}
}

// TestPoolStripedConcurrent hammers a striped pool from many goroutines
// with fetch-unpin cycles, one in nine a write set that republishes the
// page, plus periodic FlushAll (under the exclusion the engine's table
// lock gives it) and verifies counters balance. Run under -race this also exercises the
// atomics-under-shared-latch hit path.
func TestPoolStripedConcurrent(t *testing.T) {
	pager := tempPager(t)
	pool, err := NewPoolShards(pager, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 48
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = newPage(t, pool)
	}
	var table sync.RWMutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(w*131+i)%pages]
				if _, err := pool.Fetch(id); err != nil {
					t.Error(err)
					return
				}
				if err := pool.Unpin(id); err != nil {
					t.Error(err)
					return
				}
				if i%9 == 0 {
					table.RLock()
					ws := NewWriteSet(pool)
					_, _, err := ws.Acquire(id)
					ws.MarkDirty(id)
					ws.Publish()
					ws.Release()
					table.RUnlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
				if w == 0 && i%100 == 0 {
					table.Lock()
					err := pool.FlushAll()
					table.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("pinned = %d after balanced workload", n)
	}
	hits, misses, _ := pool.Stats()
	if hits+misses < 8*500 {
		t.Fatalf("hits+misses = %d, want >= 4000", hits+misses)
	}
}
