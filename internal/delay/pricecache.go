package delay

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// PriceCache memoizes per-tuple delay quotes so repeat quotes for hot
// tuples skip the tracker entirely (no rank-tree walk, no tracker lock).
// It is a sharded (striped, power-of-two shard count) fixed-capacity map
// from tuple id to (delay, epoch).
//
// Invalidation is by generation, not by key: every tracker mutation
// advances the tracker's Epoch, and a cached price is served only while
//
//	currentEpoch − cachedEpoch ≤ epochLag.
//
// With epochLag 0 a price survives only until the next mutation, so
// served prices are exactly what the uncached path would compute. A
// positive lag trades rank freshness for throughput — safe in practice
// because a hot tuple's delay is pinned near zero by its low rank (a few
// observations cannot move it meaningfully), and cold tuples age out of
// the fixed-capacity shards rarely enough not to matter.
type PriceCache struct {
	shards []priceShard
	mask   uint64
	lag    uint64

	// newest is one more than the newest epoch any price was stored at (0
	// before the first store). A lookup more than lag past it cannot find
	// a fresh price in any shard, so it reports every id stale without
	// grouping by shard or taking a lock — at lag 0 under a stream that
	// observes between quotes, that is every lookup.
	newest atomic.Uint64

	// locks counts shard-lock acquisitions; the batch paths promise at
	// most one per touched shard per batch, and the skew tests hold them
	// to it.
	locks atomic.Int64

	// groups pools the counting-sort scratch the batch paths group ids
	// with, so a steady stream of k-tuple quotes does not allocate four
	// slices per batch.
	groups sync.Pool

	// Optional instrumentation, set via Instrument before first use.
	hits       *metrics.Counter
	misses     *metrics.Counter
	stale      *metrics.Counter
	contention *metrics.Gauge
}

// shardGroups is the reusable scratch for one groupByShard call.
type shardGroups struct {
	shardOf []uint32
	bounds  []int
	order   []int
	next    []int
}

type priceShard struct {
	mu      sync.Mutex
	entries map[uint64]priceEntry
	cap     int
	newest  uint64 // newest epoch stored in this shard
}

type priceEntry struct {
	delay time.Duration
	epoch uint64
}

// DefaultPriceCacheShards is the shard count used when the caller passes
// zero: enough stripes that a front door's worth of concurrent quoters
// rarely collide, small enough to stay cache-friendly.
const DefaultPriceCacheShards = 16

// NewPriceCache returns a cache holding at most capacity prices split
// over shards stripes (rounded up to a power of two; 0 means
// DefaultPriceCacheShards). epochLag bounds how many tracker mutations a
// served price may be stale by; 0 means exact.
func NewPriceCache(capacity, shards int, epochLag uint64) (*PriceCache, error) {
	if capacity < 1 {
		return nil, errors.New("delay: price cache capacity < 1")
	}
	if shards <= 0 {
		shards = DefaultPriceCacheShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if n > capacity {
		// Never more stripes than entries; keeps per-shard capacity ≥ 1.
		for n > 1 && n > capacity {
			n >>= 1
		}
	}
	c := &PriceCache{shards: make([]priceShard, n), mask: uint64(n - 1), lag: epochLag}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].entries = make(map[uint64]priceEntry, per)
	}
	return c, nil
}

// Instrument attaches hit/miss/stale counters and a shard-contention
// gauge (incremented whenever a lookup or store finds its shard lock
// held). Any may be nil. Call before the cache is shared.
func (c *PriceCache) Instrument(hits, misses, stale *metrics.Counter, contention *metrics.Gauge) {
	c.hits = hits
	c.misses = misses
	c.stale = stale
	c.contention = contention
}

// EpochLag returns the configured staleness bound.
func (c *PriceCache) EpochLag() uint64 { return c.lag }

// Len returns the number of cached prices across all shards.
func (c *PriceCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// shard picks the stripe for id; Fibonacci hashing spreads the sequential
// ids real tables hand out.
func (c *PriceCache) shard(id uint64) *priceShard {
	return &c.shards[(id*0x9E3779B97F4A7C15)>>33&c.mask]
}

func (c *PriceCache) lock(s *priceShard) {
	c.locks.Add(1)
	if s.mu.TryLock() {
		return
	}
	if c.contention != nil {
		c.contention.Inc()
	}
	s.mu.Lock()
}

// noteStored advances newest to cover a store at epoch.
func (c *PriceCache) noteStored(epoch uint64) {
	for {
		cur := c.newest.Load()
		if cur > epoch || c.newest.CompareAndSwap(cur, epoch+1) {
			return
		}
	}
}

// allStale reports whether every resident price is more than lag behind
// epoch, counting n lookups as stale if so.
func (c *PriceCache) allStale(epoch uint64, n int) bool {
	newest := c.newest.Load()
	if newest == 0 || epoch < newest || epoch-(newest-1) <= c.lag {
		return false
	}
	if c.stale != nil {
		c.stale.Add(int64(n))
	}
	return true
}

// LockAcquisitions returns the cumulative number of shard-lock
// acquisitions across all operations. Tests diff it around a batch call
// to assert the one-lock-per-shard-per-batch contract.
func (c *PriceCache) LockAcquisitions() int64 { return c.locks.Load() }

// Lookup returns the cached price for id if one exists and is no more
// than the configured lag behind epoch (the caller's snapshot of the
// tracker epoch).
func (c *PriceCache) Lookup(id, epoch uint64) (time.Duration, bool) {
	if c.allStale(epoch, 1) {
		return 0, false
	}
	s := c.shard(id)
	c.lock(s)
	e, ok := s.entries[id]
	s.mu.Unlock()
	if !ok {
		if c.misses != nil {
			c.misses.Inc()
		}
		return 0, false
	}
	// An entry tagged ahead of the caller's snapshot (a racing Store saw a
	// newer epoch) underflows to a huge lag and is conservatively refused.
	if epoch-e.epoch > c.lag {
		if c.stale != nil {
			c.stale.Inc()
		}
		return 0, false
	}
	if c.hits != nil {
		c.hits.Inc()
	}
	return e.delay, true
}

// Store caches the price computed for id at the given tracker epoch,
// evicting an arbitrary resident entry if the shard is full.
func (c *PriceCache) Store(id uint64, d time.Duration, epoch uint64) {
	c.noteStored(epoch)
	s := c.shard(id)
	c.lock(s)
	s.store(id, d, epoch, c.lag)
	s.mu.Unlock()
}

// store inserts under the shard lock. A store more than lag past the
// shard's newest price finds everything resident dead — epochs only
// advance, so none of it can be served again — and drops it all once it
// fills half the shard (a clear costs the map's capacity, so it has to
// be earned by that many stores). A shard invalidated between quotes
// thus never gets full; one that does evicts an arbitrary entry.
func (s *priceShard) store(id uint64, d time.Duration, epoch, lag uint64) {
	if epoch > s.newest {
		if epoch-s.newest > lag && len(s.entries) >= s.cap/2 {
			clear(s.entries)
		}
		s.newest = epoch
	}
	if len(s.entries) >= s.cap {
		if _, ok := s.entries[id]; !ok {
			for k := range s.entries {
				delete(s.entries, k)
				break
			}
		}
	}
	s.entries[id] = priceEntry{delay: d, epoch: epoch}
}

// batchGroupThreshold is the batch size below which grouping ids by shard
// costs more than just taking the per-id locks.
const batchGroupThreshold = 8

// groupByShard counting-sorts indices of ids by shard into pooled
// scratch. bounds[s] and bounds[s+1] delimit, in order, the positions
// into ids owned by shard s. Callers must return g via putGroups once
// done with order/bounds.
func (c *PriceCache) groupByShard(ids []uint64) (g *shardGroups, order []int, bounds []int) {
	n := len(c.shards)
	if v := c.groups.Get(); v != nil {
		g = v.(*shardGroups)
	} else {
		g = &shardGroups{}
	}
	shardOf := g.shardOf[:0]
	bounds = g.bounds[:0]
	for s := 0; s <= n; s++ {
		bounds = append(bounds, 0)
	}
	for _, id := range ids {
		s := uint32((id * 0x9E3779B97F4A7C15) >> 33 & c.mask)
		shardOf = append(shardOf, s)
		bounds[s+1]++
	}
	for s := 1; s <= n; s++ {
		bounds[s] += bounds[s-1]
	}
	order = g.order[:0]
	for range ids {
		order = append(order, 0)
	}
	next := append(g.next[:0], bounds[:n]...)
	for i := range ids {
		s := shardOf[i]
		order[next[s]] = i
		next[s]++
	}
	g.shardOf, g.bounds, g.order, g.next = shardOf, bounds, order, next
	return g, order, bounds
}

func (c *PriceCache) putGroups(g *shardGroups) { c.groups.Put(g) }

// LookupBatch resolves a whole batch of ids against the cache at the
// caller's epoch snapshot, writing valid prices into prices (parallel to
// ids) and appending the indices it could not serve to miss (pass a
// scratch slice sliced to zero length to reuse its storage; nil works
// too). Ids are grouped by shard so a k-tuple quote takes at most one
// lock round-trip per shard instead of one per tuple.
func (c *PriceCache) LookupBatch(ids []uint64, epoch uint64, prices []time.Duration, miss []int) []int {
	if c.allStale(epoch, len(ids)) {
		for i := range ids {
			miss = append(miss, i)
		}
		return miss
	}
	if len(ids) < batchGroupThreshold {
		for i, id := range ids {
			if d, ok := c.Lookup(id, epoch); ok {
				prices[i] = d
			} else {
				miss = append(miss, i)
			}
		}
		return miss
	}
	g, order, bounds := c.groupByShard(ids)
	defer c.putGroups(g)
	var hits, misses, stale int64
	for s := range c.shards {
		lo, hi := bounds[s], bounds[s+1]
		if lo == hi {
			continue
		}
		sh := &c.shards[s]
		c.lock(sh)
		for _, i := range order[lo:hi] {
			e, ok := sh.entries[ids[i]]
			switch {
			case !ok:
				misses++
				miss = append(miss, i)
			case epoch-e.epoch > c.lag:
				stale++
				miss = append(miss, i)
			default:
				hits++
				prices[i] = e.delay
			}
		}
		sh.mu.Unlock()
	}
	if c.hits != nil && hits > 0 {
		c.hits.Add(hits)
	}
	if c.misses != nil && misses > 0 {
		c.misses.Add(misses)
	}
	if c.stale != nil && stale > 0 {
		c.stale.Add(stale)
	}
	return miss
}

// StoreBatch caches the prices (parallel to ids) computed at epoch,
// taking each touched shard lock once.
func (c *PriceCache) StoreBatch(ids []uint64, prices []time.Duration, epoch uint64) {
	if len(ids) < batchGroupThreshold {
		for i, id := range ids {
			c.Store(id, prices[i], epoch)
		}
		return
	}
	c.noteStored(epoch)
	g, order, bounds := c.groupByShard(ids)
	defer c.putGroups(g)
	for s := range c.shards {
		lo, hi := bounds[s], bounds[s+1]
		if lo == hi {
			continue
		}
		sh := &c.shards[s]
		c.lock(sh)
		for _, i := range order[lo:hi] {
			sh.store(ids[i], prices[i], epoch, c.lag)
		}
		sh.mu.Unlock()
	}
}
