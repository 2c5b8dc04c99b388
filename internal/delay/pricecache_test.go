package delay

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/metrics"
)

func newCachedAndUncached(t *testing.T, tr *counters.Decayed, lag uint64) (cached, uncached *Popularity) {
	t.Helper()
	cfg := PopularityConfig{N: 500, Alpha: 1, Beta: 2, Cap: 10 * time.Second}
	var err error
	cached, err = NewPopularity(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPriceCache(256, 4, lag)
	if err != nil {
		t.Fatal(err)
	}
	cached.SetPriceCache(pc)
	uncached, err = NewPopularity(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return cached, uncached
}

// With PriceCacheEpochLag=0, every quote served through the cache must be
// bit-identical to the uncached batch path and to the original per-tuple
// Delay loop — at any quiescent point, whatever history preceded it.
func TestPriceCacheExactAtLagZero(t *testing.T) {
	tr, err := counters.NewDecayed(1.0001)
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached := newCachedAndUncached(t, tr, 0)
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			tr.Observe(uint64(rng.Intn(300)))
		}
		ids := make([]uint64, 1+rng.Intn(64))
		for i := range ids {
			ids[i] = uint64(rng.Intn(600)) // half the range never observed
		}
		// Quote twice: the first fills the cache, the second must serve
		// from it (no mutation in between) with the identical total.
		first := cached.DelayBatch(ids)
		second := cached.DelayBatch(ids)
		want := uncached.DelayBatch(ids)
		var perTuple time.Duration
		for _, id := range ids {
			perTuple = satAdd(perTuple, uncached.Delay(id))
		}
		if first != want || second != want || perTuple != want {
			t.Fatalf("round %d: cached %v / %v, uncached batch %v, per-tuple %v",
				round, first, second, want, perTuple)
		}
	}
}

// Under concurrent Observe/Quote, a cache with lag 0 must never serve a
// price that the uncached path would not have produced at the same
// epoch. Each quoter snapshots the epoch; when the epoch is unchanged
// across both the cached and the uncached computation, the two totals
// compare bit-for-bit. Run with -race.
func TestPriceCacheConcurrentExactness(t *testing.T) {
	tr, err := counters.NewDecayed(1.0001)
	if err != nil {
		t.Fatal(err)
	}
	cached, uncached := newCachedAndUncached(t, tr, 0)
	stop := make(chan struct{})
	var mutatorDone sync.WaitGroup
	mutatorDone.Add(1)
	go func() {
		defer mutatorDone.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.ObserveBatch([]uint64{uint64(rng.Intn(200)), uint64(rng.Intn(200))})
		}
	}()
	var mismatches, checked atomic.Int64
	var quoters sync.WaitGroup
	for q := 0; q < 4; q++ {
		quoters.Add(1)
		go func(seed int64) {
			defer quoters.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				if i == 1500 && seed == 10 {
					// Half way in, silence the mutator so quoters also get
					// guaranteed stable-epoch windows to compare in.
					close(stop)
				}
				ids := make([]uint64, 1+rng.Intn(16))
				for j := range ids {
					ids[j] = uint64(rng.Intn(400))
				}
				e0 := tr.Epoch()
				got := cached.DelayBatch(ids)
				if tr.Epoch() != e0 {
					continue // mutated mid-quote; nothing to compare against
				}
				want := uncached.DelayBatch(ids)
				if tr.Epoch() != e0 {
					continue
				}
				checked.Add(1)
				if got != want {
					mismatches.Add(1)
				}
			}
		}(int64(q + 10))
	}
	quoters.Wait()
	mutatorDone.Wait()
	if checked.Load() == 0 {
		t.Fatal("no stable-epoch quote windows observed")
	}
	if mismatches.Load() != 0 {
		t.Fatalf("%d/%d stable-epoch quotes mismatched the uncached path", mismatches.Load(), checked.Load())
	}
}

// A positive epoch lag serves bounded-stale prices: within the lag the
// cached (possibly stale) value is returned; past it the entry is
// refused and recomputed.
func TestPriceCacheEpochLagBoundsStaleness(t *testing.T) {
	tr, err := counters.NewDecayed(1.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPopularity(PopularityConfig{N: 100, Alpha: 1, Beta: 1, Cap: time.Second}, tr)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPriceCache(64, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	hits := reg.Counter("hits")
	misses := reg.Counter("misses")
	stale := reg.Counter("stale")
	pc.Instrument(hits, misses, stale, reg.Gauge("contention"))
	p.SetPriceCache(pc)

	tr.Observe(7)
	p.DelayBatch([]uint64{7}) // fill
	if misses.Value() != 1 {
		t.Fatalf("misses = %d", misses.Value())
	}
	tr.Observe(7) // 2 epoch ticks (observe + decay tick), within lag 4
	if p.DelayBatch([]uint64{7}); hits.Value() != 1 {
		t.Fatalf("hits = %d; in-lag lookup did not hit", hits.Value())
	}
	tr.Observe(7)
	tr.Observe(7) // now 6 ticks past the fill epoch: beyond the lag
	if p.DelayBatch([]uint64{7}); stale.Value() != 1 {
		t.Fatalf("stale = %d; out-of-lag lookup served", stale.Value())
	}
}

// The fixed capacity bounds residency no matter how many distinct ids
// pass through.
func TestPriceCacheCapacityBounded(t *testing.T) {
	pc, err := NewPriceCache(32, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 10_000; id++ {
		pc.Store(id, time.Millisecond, 0)
	}
	if n := pc.Len(); n > 32 {
		t.Fatalf("cache holds %d entries, capacity 32", n)
	}
}

func TestPriceCacheValidation(t *testing.T) {
	if _, err := NewPriceCache(0, 4, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	// Shard count is rounded up to a power of two and capped by capacity.
	pc, err := NewPriceCache(2, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pc.shards); got != 2 {
		t.Fatalf("shards = %d, want 2", got)
	}
	pc, err = NewPriceCache(1024, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pc.shards); got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}
}

// A quote made before anything is learned prices at the cap, but must not
// be cached: under a generous epoch lag the first real observation would
// otherwise leave retries pinned at the startup cap for up to lag
// mutations.
func TestPriceCacheDoesNotPinStartupTransient(t *testing.T) {
	tr, err := counters.NewDecayed(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPopularity(PopularityConfig{N: 1000, Alpha: 1, Beta: 2, Cap: time.Second}, tr)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPriceCache(64, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPriceCache(pc)
	if d := p.DelayBatch([]uint64{7}); d != time.Second {
		t.Fatalf("unlearned quote = %v, want the cap", d)
	}
	tr.Observe(7)
	if d := p.DelayBatch([]uint64{7}); d >= time.Second {
		t.Fatalf("post-observation quote = %v: the startup cap was cached", d)
	}
}

// TestPriceCacheBatchLocksOncePerShard holds the batch paths to their
// contract — one shard-lock acquisition per touched shard per batch —
// under adversarial skew: every id in the batch hashes to the same
// shard, so the whole batch must cost exactly one lock round-trip.
func TestPriceCacheBatchLocksOncePerShard(t *testing.T) {
	pc, err := NewPriceCache(256, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	nShards := int(pc.mask) + 1
	if nShards != 16 {
		t.Fatalf("shard count = %d, want 16", nShards)
	}
	shardOf := func(id uint64) uint64 { return (id * 0x9E3779B97F4A7C15) >> 33 & pc.mask }

	// Collect 2*batchGroupThreshold ids that all land on shard 0 — the
	// worst case for any per-shard batching scheme.
	var skewed []uint64
	for id := uint64(1); len(skewed) < 2*batchGroupThreshold; id++ {
		if shardOf(id) == 0 {
			skewed = append(skewed, id)
		}
	}

	prices := make([]time.Duration, len(skewed))
	before := pc.LockAcquisitions()
	miss := pc.LookupBatch(skewed, 0, prices, nil)
	if got := pc.LockAcquisitions() - before; got != 1 {
		t.Errorf("skewed LookupBatch (all misses): %d lock acquisitions, want 1", got)
	}
	if len(miss) != len(skewed) {
		t.Fatalf("cold lookup: %d misses, want %d", len(miss), len(skewed))
	}

	for i := range prices {
		prices[i] = time.Duration(i+1) * time.Millisecond
	}
	before = pc.LockAcquisitions()
	pc.StoreBatch(skewed, prices, 0)
	if got := pc.LockAcquisitions() - before; got != 1 {
		t.Errorf("skewed StoreBatch: %d lock acquisitions, want 1", got)
	}

	got := make([]time.Duration, len(skewed))
	before = pc.LockAcquisitions()
	miss = pc.LookupBatch(skewed, 0, got, nil)
	if n := pc.LockAcquisitions() - before; n != 1 {
		t.Errorf("skewed LookupBatch (all hits): %d lock acquisitions, want 1", n)
	}
	if len(miss) != 0 {
		t.Fatalf("warm lookup: %d misses, want 0", len(miss))
	}
	for i := range got {
		if got[i] != prices[i] {
			t.Fatalf("id %d: cached %v, stored %v", skewed[i], got[i], prices[i])
		}
	}

	// A batch spanning two shards costs exactly two acquisitions.
	var other []uint64
	for id := uint64(1); len(other) < batchGroupThreshold; id++ {
		if shardOf(id) == 1 {
			other = append(other, id)
		}
	}
	mixed := append(append([]uint64(nil), skewed[:batchGroupThreshold]...), other...)
	mixedPrices := make([]time.Duration, len(mixed))
	before = pc.LockAcquisitions()
	pc.LookupBatch(mixed, 0, mixedPrices, nil)
	if got := pc.LockAcquisitions() - before; got != 2 {
		t.Errorf("two-shard LookupBatch: %d lock acquisitions, want 2", got)
	}
}

// Once the caller's epoch is more than lag past the newest stored one,
// nothing resident can be fresh: single and batch lookups must report
// every id stale without taking a shard lock, and go back to the shards
// as soon as a store catches up.
func TestPriceCacheAllStaleSkipsTheShards(t *testing.T) {
	pc, err := NewPriceCache(256, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	hits, misses, stale := reg.Counter("hits"), reg.Counter("misses"), reg.Counter("stale")
	pc.Instrument(hits, misses, stale, nil)
	ids := make([]uint64, 3*batchGroupThreshold)
	prices := make([]time.Duration, len(ids))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}

	// Nothing stored yet: cold lookups are misses, found the slow way.
	if miss := pc.LookupBatch(ids, 40, prices, nil); len(miss) != len(ids) || misses.Value() != int64(len(ids)) || stale.Value() != 0 {
		t.Fatalf("cold lookup: %d misses returned, counters miss=%d stale=%d", len(miss), misses.Value(), stale.Value())
	}
	pc.StoreBatch(ids, prices, 10)

	before := pc.LockAcquisitions()
	miss := pc.LookupBatch(ids, 13, prices, nil)
	if _, ok := pc.Lookup(ids[0], 13); ok || len(miss) != len(ids) {
		t.Fatalf("epoch 13 against prices stored at 10 with lag 2: %d of %d stale, single ok=%v", len(miss), len(ids), ok)
	}
	for i, m := range miss {
		if m != i {
			t.Fatalf("miss[%d] = %d: indices must come back in order", i, m)
		}
	}
	if got := pc.LockAcquisitions() - before; got != 0 {
		t.Fatalf("all-stale lookups took %d shard locks", got)
	}
	if stale.Value() != int64(len(ids))+1 || hits.Value() != 0 {
		t.Fatalf("stale = %d, hits = %d; want %d, 0", stale.Value(), hits.Value(), len(ids)+1)
	}

	// Inside the lag, and after a newer store, the shards answer again.
	if miss := pc.LookupBatch(ids, 12, prices, nil); len(miss) != 0 {
		t.Fatalf("in-lag lookup: %d misses", len(miss))
	}
	pc.Store(ids[0], time.Millisecond, 13)
	if d, ok := pc.Lookup(ids[0], 13); !ok || d != time.Millisecond {
		t.Fatalf("lookup after a fresh store = %v, %v", d, ok)
	}
	if pc.LockAcquisitions() == before {
		t.Fatal("fresh lookups never reached a shard")
	}
}
