package storage

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// singleLatchPool reproduces the pre-striping buffer pool — one global
// mutex guarding a map plus a container/list LRU, spliced on every hit
// and held across pager I/O on misses — as the read-only benchmark
// baseline for the striped clock pool.
type singleLatchPool struct {
	mu       sync.Mutex
	pager    *Pager
	capacity int
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recently used
}

type singleLatchFrame struct {
	id   PageID
	page *Page
	pins int
}

func newSingleLatchPool(pager *Pager, capacity int) *singleLatchPool {
	return &singleLatchPool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[PageID]*list.Element),
		lru:      list.New(),
	}
}

func (b *singleLatchPool) Fetch(id PageID) (*Page, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.frames[id]; ok {
		b.lru.MoveToFront(el)
		f := el.Value.(*singleLatchFrame)
		f.pins++
		return f.page, nil
	}
	if len(b.frames) >= b.capacity {
		if err := b.evictLocked(); err != nil {
			return nil, err
		}
	}
	pg := NewPage()
	if err := b.pager.Read(id, pg); err != nil {
		return nil, err
	}
	f := &singleLatchFrame{id: id, page: pg, pins: 1}
	b.frames[id] = b.lru.PushFront(f)
	return f.page, nil
}

func (b *singleLatchPool) Unpin(id PageID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	el, ok := b.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	f := el.Value.(*singleLatchFrame)
	if f.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.pins--
	return nil
}

func (b *singleLatchPool) evictLocked() error {
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		f := el.Value.(*singleLatchFrame)
		if f.pins > 0 {
			continue
		}
		b.lru.Remove(el)
		delete(b.frames, f.id)
		return nil
	}
	return fmt.Errorf("storage: all frames pinned")
}

// Benchmark shape: a hot set that stays resident plus a cold tail that
// misses, under the repo's standard modeled 2004-era I/O latency (a
// latency fault rule on page reads and writes). One access in missEvery
// goes cold. The single latch holds the pool mutex across the modeled
// read, so every goroutine — hit or miss — queues behind each stall; the
// striped pool holds only one shard's latch, so hits proceed and misses
// on other shards overlap their I/O. That overlap, not raw lock cost, is
// the architectural win, and it shows even on a single-core host (a
// sleeping miss releases the CPU to whoever can still make progress).
// benchColdPages is sized so no goroutine's private cold slice can ever
// become pool-resident (512/8 = 64 cold pages per goroutine at g=8, vs
// 64 spare frames shared by all of them): every cold access genuinely
// misses, keeping the measurement at the all-miss floor instead of
// drifting with whatever fraction of the cold set the replacement
// policy happens to retain run-to-run.
const (
	benchHotPages  = 128
	benchColdPages = 512
	benchPoolCap   = benchHotPages + 64
	benchMissEvery = 32
	benchIOLatency = 100 * time.Microsecond
)

// benchPager returns a pager with the hot+cold page sets allocated, with
// the modeled I/O cost left uninstalled (setup stays fast).
func benchPager(b *testing.B) (*Pager, []PageID) {
	b.Helper()
	pager, err := OpenPager(b.TempDir() + "/bench.tbl")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pager.Close() })
	ids := make([]PageID, benchHotPages+benchColdPages)
	for i := range ids {
		id, err := pager.Allocate(nil)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return pager, ids
}

// fetchUnpinner is the surface both pools share for the benchmark loop.
type fetchUnpinner interface {
	Fetch(PageID) (*Page, error)
	Unpin(PageID) error
}

// benchParallelFetch drives goroutines doing fetch/unpin cycles: mostly
// hot-set hits, every benchMissEvery-th access a cold miss paying the
// modeled I/O latency. GOMAXPROCS is raised to the goroutine count for
// the duration so latch contention is also physical on multicore hosts.
func benchParallelFetch(b *testing.B, pool fetchUnpinner, ids []PageID, goroutines int) {
	b.Helper()
	hot, cold := ids[:benchHotPages], ids[benchHotPages:]
	// Warm the hot set.
	for _, id := range hot {
		if _, err := pool.Fetch(id); err != nil {
			b.Fatal(err)
		}
		if err := pool.Unpin(id); err != nil {
			b.Fatal(err)
		}
	}
	prev := runtime.GOMAXPROCS(goroutines)
	defer runtime.GOMAXPROCS(prev)
	var worker atomic.Int64
	b.SetParallelism((goroutines + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine owns a private slice of the cold set, so one
		// goroutine's miss never turns into another's hit, and (with the
		// cold set laid out in id order) its misses land on a disjoint
		// pair of shards — concurrent misses contend on the pager, not on
		// each other's shard latch. Sequences are staggered so goroutines
		// don't miss in lockstep.
		w := int(worker.Add(1)-1) % goroutines
		myCold := len(cold) / goroutines
		seq := w * 41
		misses := 0
		for pb.Next() {
			var id PageID
			if seq%benchMissEvery == 0 {
				// The phase offset w*2 keeps concurrent misses on distinct
				// shards even when goroutines advance in lockstep.
				id = cold[w*myCold+(w*2+misses)%myCold]
				misses++
			} else {
				id = hot[(seq*7)%len(hot)]
			}
			seq++
			if _, err := pool.Fetch(id); err != nil {
				b.Error(err)
				return
			}
			if err := pool.Unpin(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
}

// BenchmarkPoolFetchParallel measures fetch/unpin throughput on the
// striped clock pool at 1 and 8 goroutines against the old single-latch
// LRU pool at the same widths. The 8-goroutine pair is the headline
// scaling claim recorded in BENCH_engine.json.
func BenchmarkPoolFetchParallel(b *testing.B) {
	for _, g := range []int{1, 8} {
		b.Run(fmt.Sprintf("striped/g=%d", g), func(b *testing.B) {
			pager, ids := benchPager(b)
			pool, err := NewPoolShards(pager, benchPoolCap, 16)
			if err != nil {
				b.Fatal(err)
			}
			modelIO(b)
			benchParallelFetch(b, pool, ids, g)
		})
	}
	for _, g := range []int{1, 8} {
		b.Run(fmt.Sprintf("singlelatch/g=%d", g), func(b *testing.B) {
			pager, ids := benchPager(b)
			pool := newSingleLatchPool(pager, benchPoolCap)
			modelIO(b)
			benchParallelFetch(b, pool, ids, g)
		})
	}
}

// modelIO makes every physical page read and write sleep benchIOLatency
// until the benchmark ends.
func modelIO(b *testing.B) {
	fault.Enable(fault.NewRegistry(1).
		Add(fault.Rule{Site: fault.PagerRead, Kind: fault.Latency, Latency: benchIOLatency}).
		Add(fault.Rule{Site: fault.PagerWrite, Kind: fault.Latency, Latency: benchIOLatency}))
	b.Cleanup(fault.Disable)
}

// BenchmarkPoolFetchHit isolates the pure cache-hit path (no misses, no
// modeled I/O) so the single-goroutine latch overhead of the striped
// design stays visible next to the old pool's.
func BenchmarkPoolFetchHit(b *testing.B) {
	run := func(b *testing.B, pool fetchUnpinner, ids []PageID) {
		b.Helper()
		hot := ids[:benchHotPages]
		for _, id := range hot {
			if _, err := pool.Fetch(id); err != nil {
				b.Fatal(err)
			}
			if err := pool.Unpin(id); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := hot[(i*7)%len(hot)]
			if _, err := pool.Fetch(id); err != nil {
				b.Fatal(err)
			}
			if err := pool.Unpin(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("striped", func(b *testing.B) {
		pager, ids := benchPager(b)
		pool, err := NewPoolShards(pager, benchPoolCap, 16)
		if err != nil {
			b.Fatal(err)
		}
		run(b, pool, ids)
	})
	b.Run("singlelatch", func(b *testing.B) {
		pager, ids := benchPager(b)
		run(b, newSingleLatchPool(pager, benchPoolCap), ids)
	})
}

// BenchmarkPoolFetchMiss is the miss on a full stripe, the pool's share
// of a scan over a table many times its size: the engine's default 256
// frames in 16 stripes, read in id order round a working set 2.5 times
// that, the way a SELECT reads (FetchAt, no pin), so every access evicts
// a frame and loads a page from the file cache. ns/op carries the pread;
// B/op and allocs/op are what the pool itself allocates per miss.
func BenchmarkPoolFetchMiss(b *testing.B) {
	b.Run("stripe=full", func(b *testing.B) {
		pager, ids := benchPager(b)
		pool, err := NewPool(pager, 256)
		if err != nil {
			b.Fatal(err)
		}
		fetch := func(i int) {
			if _, _, err := pool.FetchAt(ids[i%len(ids)], 0); err != nil {
				b.Fatal(err)
			}
		}
		for i := range ids {
			fetch(i)
		}
		_, missesBefore, _ := pool.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fetch(i)
		}
		b.StopTimer()
		if _, misses, _ := pool.Stats(); misses-missesBefore != int64(b.N) {
			b.Fatalf("%d of %d fetches missed; the benchmark is meant to be all misses", misses-missesBefore, b.N)
		}
	})
}
