package counters

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// Store is the backing store a CountCache spills to. Implementations are
// a plain map (tests), a file (tools), or a column in the database engine
// itself (the Table 5 overhead experiment).
type Store interface {
	// GetCount returns the persisted count for id, or ok=false if never
	// persisted.
	GetCount(id uint64) (count float64, ok bool, err error)
	// PutCount persists the count for id.
	PutCount(id uint64, count float64) error
}

// BatchStore is a Store that can atomically replace its entire contents.
// Snapshot writers (Shield.SaveCounts) take it rather than writing row by
// row with PutCount, which can fail midway and leave a torn snapshot — and
// which never removes rows from a previous, larger save.
type BatchStore interface {
	Store
	// ReplaceAllCounts clears every persisted count and writes the given
	// pairs as one atomic unit: a reader (or a crash-recovered store)
	// sees either the complete old contents or the complete new ones.
	ReplaceAllCounts(ids []uint64, counts []float64) error
}

// MapStore is an in-memory Store for tests and examples. It is safe for
// concurrent use.
type MapStore struct {
	mu   sync.Mutex
	m    map[uint64]float64
	gets int64
	puts int64
}

// NewMapStore returns an empty MapStore.
func NewMapStore() *MapStore { return &MapStore{m: make(map[uint64]float64)} }

// GetCount implements Store.
func (s *MapStore) GetCount(id uint64) (float64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	c, ok := s.m[id]
	return c, ok, nil
}

// PutCount implements Store.
func (s *MapStore) PutCount(id uint64, count float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[id] = count
	return nil
}

// ReplaceAllCounts implements BatchStore: the map is swapped wholesale
// under the lock.
func (s *MapStore) ReplaceAllCounts(ids []uint64, counts []float64) error {
	if len(ids) != len(counts) {
		return errors.New("counters: ids/counts length mismatch")
	}
	m := make(map[uint64]float64, len(ids))
	for i, id := range ids {
		m[id] = counts[i]
	}
	s.mu.Lock()
	s.m = m
	s.puts += int64(len(ids))
	s.mu.Unlock()
	return nil
}

// Ops returns the number of get and put operations served, for overhead
// accounting in tests and benchmarks.
func (s *MapStore) Ops() (gets, puts int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts
}

// Len returns the number of persisted ids.
func (s *MapStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// CountCache is the paper's §4.4 "small, write-behind cache of tuple
// counts. However, not all counts are kept in memory, resulting in some
// I/O overhead." It keeps at most capacity counts resident; increments
// hit memory, and dirty entries are written back only on eviction or
// Flush. CountCache is safe for concurrent use.
type CountCache struct {
	mu       sync.Mutex
	capacity int
	store    Store
	entries  map[uint64]*list.Element
	lru      *list.List // front = most recently used
	hits     int64
	misses   int64
	evicts   int64
}

type cacheEntry struct {
	id    uint64
	count float64
	dirty bool
}

// NewCountCache returns a cache of the given capacity over store.
func NewCountCache(capacity int, store Store) (*CountCache, error) {
	if capacity < 1 {
		return nil, errors.New("counters: cache capacity < 1")
	}
	if store == nil {
		return nil, errors.New("counters: nil store")
	}
	return &CountCache{
		capacity: capacity,
		store:    store,
		entries:  make(map[uint64]*list.Element),
		lru:      list.New(),
	}, nil
}

// Add increases id's count by delta and returns the new count. On a cache
// miss the prior count is faulted in from the store (the I/O the paper's
// overhead numbers include).
func (c *CountCache) Add(id uint64, delta float64) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.faultLocked(id)
	if err != nil {
		return 0, err
	}
	e.count += delta
	e.dirty = true
	return e.count, nil
}

// Get returns id's current count, faulting from the store if needed.
func (c *CountCache) Get(id uint64) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.faultLocked(id)
	if err != nil {
		return 0, err
	}
	return e.count, nil
}

func (c *CountCache) faultLocked(id uint64) (*cacheEntry, error) {
	if el, ok := c.entries[id]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry), nil
	}
	c.misses++
	count, _, err := c.store.GetCount(id)
	if err != nil {
		return nil, fmt.Errorf("counters: faulting id %d: %w", id, err)
	}
	if len(c.entries) >= c.capacity {
		if err := c.evictLocked(); err != nil {
			return nil, err
		}
	}
	e := &cacheEntry{id: id, count: count}
	c.entries[id] = c.lru.PushFront(e)
	return e, nil
}

func (c *CountCache) evictLocked() error {
	el := c.lru.Back()
	if el == nil {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.dirty {
		if err := c.store.PutCount(e.id, e.count); err != nil {
			return fmt.Errorf("counters: writing back id %d: %w", e.id, err)
		}
	}
	c.lru.Remove(el)
	delete(c.entries, e.id)
	c.evicts++
	return nil
}

// Flush writes every dirty resident count to the store. Entries stay
// resident but clean.
func (c *CountCache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if !e.dirty {
			continue
		}
		if err := c.store.PutCount(e.id, e.count); err != nil {
			return fmt.Errorf("counters: flushing id %d: %w", e.id, err)
		}
		e.dirty = false
	}
	return nil
}

// Stats returns cache hit/miss/eviction counters.
func (c *CountCache) Stats() (hits, misses, evicts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicts
}

// Resident returns the number of counts currently held in memory.
func (c *CountCache) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
