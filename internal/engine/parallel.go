// Full-heap reads: full-scan SELECTs, full-scan aggregates and index
// builds all read through one page walker (heapWalk) at a snapshot they
// register. Rows (fullScan) stream straight from it at one worker, so a
// LIMIT stops on the page that satisfies it. Aggregates
// (aggregateFullScan) fold one chunk at a time and merge the chunks in
// page order at any worker count, so their bits do not depend on it.
//
// The chunked executor (runChunkedScan) cuts the heap into fixed-size
// chunks that a small worker pool claims through an atomic cursor and
// maps concurrently — the buffer pool's lock striping keeps them off
// each other's latches — while the calling goroutine reduces results
// strictly in page order. Early termination (LIMIT satisfied, callback
// false, first error) raises a stop flag workers poll between pages;
// per-chunk result channels are buffered so no goroutine ever blocks on
// a consumer that has already left, and workers claim at most
// scanWindow chunks past the last one the consumer has taken, so what a
// stopped scan read in vain is bounded by a constant, not by the
// scheduler.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// scanChunkPages is the claim unit: large enough that the atomic cursor
// and channel round-trip amortize across many pages, small enough that
// chunks stripe evenly across workers and LIMIT cancellation is prompt.
// It is also an aggregate's fold unit, so it decides a FLOAT SUM's bits.
const scanChunkPages = 16

// minParallelScanPages gates the executor: below two chunks there is
// nothing to overlap and goroutine setup would only add latency.
const minParallelScanPages = 2 * scanChunkPages

// scanWorkersFor resolves the worker count for a scan of t: GOMAXPROCS
// at Open, capped by the chunk count so no worker starts without work.
// Returns 1 for small heaps.
func (db *Database) scanWorkersFor(t *table) int {
	n := t.heap.NumPages()
	if n < minParallelScanPages || db.scanWorkers <= 1 {
		return 1
	}
	w := db.scanWorkers
	if chunks := int((n + scanChunkPages - 1) / scanChunkPages); w > chunks {
		w = chunks
	}
	return w
}

// heapWalk reads a table's heap at snapshot snap, which the caller
// registered: every live record decoded under decode, the rows that
// match conj handed on. It is the engine's one full-heap reader.
type heapWalk struct {
	t      *table
	conj   []boundConj
	decode []bool
	snap   uint64
	// vals is the decode buffer. With keep every matching row stays
	// appended to it (a chunk's rows, handed over after the walk);
	// without, every row decodes into the same slots.
	vals []catalog.Value
	keep bool
}

// pages walks heap pages [lo, hi) in page and slot order, handing each
// matching row to visit with its rid and record, until visit returns
// false or an error, or stop (nil: never) is raised between pages. A
// decode error names the record's rid. The record is a slice of the page
// version the snapshot sees, not a copy: a published version is never
// written in place and a pool miss loads into a fresh buffer
// (Pool.fetchSlow), so it stays intact while snap is registered.
func (w *heapWalk) pages(lo, hi storage.PageID, stop *atomic.Bool, visit scanFn) error {
	var err error
	step := func(rid storage.RID, rec []byte) bool {
		n := 0
		if w.keep {
			n = len(w.vals)
		}
		vals, derr := catalog.DecodeRowInto(w.t.schema, rec, w.vals[:n], w.decode)
		if derr != nil {
			err = fmt.Errorf("row %v: %w", rid, derr)
			return false
		}
		row := vals[n:len(vals):len(vals)]
		ok, merr := matchesBound(row, w.conj)
		if merr != nil {
			err = merr
			return false
		}
		if !ok {
			w.vals = vals[:n]
			return true
		}
		w.vals = vals
		cont, verr := visit(rid, row, rec)
		err = verr
		return cont && verr == nil
	}
	for id := lo; id < hi; id++ {
		if stop != nil && stop.Load() {
			return nil
		}
		cont, serr := w.t.heap.ScanPageAt(id, w.snap, step)
		if serr != nil {
			return serr
		}
		if !cont {
			return err
		}
	}
	return nil
}

// chunkResult carries one chunk's mapped value or the error that ended
// its scan.
type chunkResult[T any] struct {
	val T
	err error
}

// scanWindow is how many chunks workers may have claimed that the
// reducer has not yet taken: one in flight per worker plus half as many
// again finished and waiting, so a worker that finishes ahead of a
// slower neighbour has a chunk to go on with instead of idling until
// the reducer reaches it. BenchmarkEngineScan and
// BenchmarkEngineScanColdIO at g=4 and g=16 read the same at 1x, 1.5x,
// 2x workers and with no bound at all (EXPERIMENTS.md, PR 19), so the
// window is as small as the argument above allows.
func scanWindow(workers int) int {
	return workers + workers/2
}

// chunkPages returns the page range [lo, hi) of chunk c of an n-page heap.
func chunkPages(c int, n storage.PageID) (lo, hi storage.PageID) {
	lo = storage.PageID(c) * scanChunkPages
	return lo, min(lo+scanChunkPages, n)
}

// runChunkedScan partitions [0, n) pages into chunks, maps each chunk on
// one of workers goroutines, and reduces results on the calling
// goroutine in ascending chunk order. mapChunk should poll stop between
// pages and return early when it is set; reduce returning false (or
// either function erroring) cancels the remaining work. A worker claims
// a chunk only against a credit, and the reducer hands one back per
// chunk it moves past, so an early stop after k reduced chunks has had
// at most k + scanWindow(workers) chunks mapped — on any number of Ps,
// however the goroutines were scheduled. runChunkedScan returns only
// after every worker has exited, so mapped state is never touched after
// it returns. With one worker, the calling goroutine maps and reduces
// each chunk in turn: no goroutine, no channel.
func runChunkedScan[T any](n storage.PageID, workers int,
	mapChunk func(lo, hi storage.PageID, stop *atomic.Bool) (T, error),
	reduce func(T) (bool, error),
) error {
	chunks := int((n + scanChunkPages - 1) / scanChunkPages)
	if workers <= 1 {
		var stop atomic.Bool
		for c := 0; c < chunks; c++ {
			lo, hi := chunkPages(c, n)
			val, err := mapChunk(lo, hi, &stop)
			if err != nil {
				return err
			}
			if cont, err := reduce(val); err != nil || !cont {
				return err
			}
		}
		return nil
	}
	// One buffered slot per chunk: a worker's send never blocks, so
	// workers can drain to exit even when the reducer stopped early.
	outs := make([]chan chunkResult[T], chunks)
	for i := range outs {
		outs[i] = make(chan chunkResult[T], 1)
	}
	window := scanWindow(workers)
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	var (
		cursor atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Closed once the reducer is done: a worker parked here
				// wakes, sees stop and leaves.
				<-credits
				if stop.Load() {
					return
				}
				c := int(cursor.Add(1) - 1)
				if c >= chunks {
					return
				}
				lo, hi := chunkPages(c, n)
				val, err := mapChunk(lo, hi, &stop)
				if err != nil {
					stop.Store(true)
				}
				outs[c] <- chunkResult[T]{val: val, err: err}
			}
		}()
	}
	// Workers claim chunks in ascending order, so the next unread chunk
	// is always the earliest-claimed outstanding one: the reducer never
	// waits on a chunk behind an unclaimed one, and once stop is set it
	// stops reading entirely (buffered sends are simply dropped).
	var err error
	for c := 0; c < chunks && err == nil; c++ {
		out := <-outs[c]
		if out.err != nil {
			err = out.err
			break
		}
		cont, rerr := reduce(out.val)
		if rerr != nil {
			err = rerr
		}
		if rerr != nil || !cont {
			break
		}
		credits <- struct{}{} // never blocks: at most window are out
	}
	stop.Store(true)
	close(credits)
	wg.Wait()
	return err
}

// scannedRows is one chunk's matching rows: row i is
// vals[i*width:(i+1)*width], decoded from recs[i], a slice of the page
// version it was read from (see heapWalk.pages).
type scannedRows struct {
	rids []storage.RID
	vals []catalog.Value
	recs [][]byte
}

// scanChunk collects the rows of heap pages [lo, hi) that match conj,
// decoded under decode into the chunk's own arena, so they survive
// hand-off to the reducer.
func scanChunk(t *table, conj []boundConj, decode []bool, snap uint64, lo, hi storage.PageID, stop *atomic.Bool) (scannedRows, error) {
	var out scannedRows
	w := heapWalk{t: t, conj: conj, decode: decode, snap: snap, keep: true}
	err := w.pages(lo, hi, stop, func(rid storage.RID, _ catalog.Row, rec []byte) (bool, error) {
		out.rids = append(out.rids, rid)
		out.recs = append(out.recs, rec)
		return true, nil
	})
	out.vals = w.vals
	return out, err
}

// fullScan streams the rows of t that match conj to fn in page order,
// decoded under decode, at a snapshot it registers. One worker walks the
// pages straight through; more take chunks through runChunkedScan. fn
// runs on the calling goroutine only; returning false stops the scan
// (LIMIT). Callers hold at least the table read lock.
func (db *Database) fullScan(t *table, conj []boundConj, decode []bool, fn scanFn) error {
	snap := t.pool.BeginSnapshot()
	defer t.pool.EndSnapshot(snap)
	workers := db.scanWorkersFor(t)
	if workers == 1 {
		sc := rowScratchPool.Get().(*rowScratch)
		defer rowScratchPool.Put(sc)
		w := heapWalk{t: t, conj: conj, decode: decode, snap: snap, vals: sc.row[:0]}
		err := w.pages(0, t.heap.NumPages(), nil, fn)
		sc.row = w.vals[:0]
		return err
	}
	width := len(t.schema.Columns)
	return runChunkedScan(t.heap.NumPages(), workers,
		func(lo, hi storage.PageID, stop *atomic.Bool) (scannedRows, error) {
			return scanChunk(t, conj, decode, snap, lo, hi, stop)
		},
		func(c scannedRows) (bool, error) {
			for i, rec := range c.recs {
				row := c.vals[i*width : (i+1)*width : (i+1)*width]
				if cont, err := fn(c.rids[i], row, rec); err != nil || !cont {
					return cont, err
				}
			}
			return true, nil
		})
}

// chunkAgg is one chunk's aggregate partial: private accumulators plus
// the keys of the rows folded into them.
type chunkAgg struct {
	accs []aggAccum
	keys []uint64
}

// aggregateFullScan folds the rows of t that match conj into accs and
// appends their keys to res.Keys. Each chunk folds into accumulators of
// its own and the chunks merge in page order at any worker count, so the
// result depends on the heap's layout alone. Callers hold at least the
// table read lock.
func (db *Database) aggregateFullScan(t *table, conj []boundConj, need []bool, accs []aggAccum, res *Result) error {
	snap := t.pool.BeginSnapshot()
	defer t.pool.EndSnapshot(snap)
	workers := db.scanWorkersFor(t)
	// A chunk's key buffer goes back to the mappers once the reducer has
	// copied it out, so a scan grows a window's worth of them, not one per
	// chunk (at one worker, one per chunk cost BenchmarkEngineScan/g=1 70
	// allocations and 10-45% of its time). At most scanWindow chunks are
	// claimed and not yet reduced, so that many buffers plus the one being
	// handed back can be spare at once.
	spare := make(chan []uint64, scanWindow(workers)+1)
	return runChunkedScan(t.heap.NumPages(), workers,
		func(lo, hi storage.PageID, stop *atomic.Bool) (chunkAgg, error) {
			part := chunkAgg{accs: make([]aggAccum, len(accs))}
			for i := range accs {
				part.accs[i].col = accs[i].col
			}
			select {
			case part.keys = <-spare:
			default:
			}
			// Rows are folded into the accumulators and dropped, so the
			// whole chunk decodes through one scratch row. (observe copies
			// the values it keeps; decoded strings own their memory.)
			w := heapWalk{t: t, conj: conj, decode: need, snap: snap}
			err := w.pages(lo, hi, stop, func(_ storage.RID, row catalog.Row, _ []byte) (bool, error) {
				part.keys = append(part.keys, uint64(row[t.schema.Key].Int))
				for i := range part.accs {
					part.accs[i].observe(row)
				}
				return true, nil
			})
			return part, err
		},
		func(part chunkAgg) (bool, error) {
			res.Keys = append(res.Keys, part.keys...)
			select {
			case spare <- part.keys[:0]:
			default:
			}
			for i := range accs {
				accs[i].merge(part.accs[i])
			}
			return true, nil
		})
}
