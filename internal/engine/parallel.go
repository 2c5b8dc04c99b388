// Parallel scan executor: full table scans and aggregates partition the
// heap's page range into fixed-size chunks that a small worker pool
// claims through an atomic cursor. Workers fetch, decode, and filter
// pages concurrently — the buffer pool's lock striping keeps them off
// each other's latches — while the calling goroutine consumes chunk
// results strictly in page order, so parallel execution is
// indistinguishable from a sequential scan to everything above it
// (row order, LIMIT semantics, Keys order, aggregate merge order).
//
// Early termination (LIMIT satisfied, callback false, first error)
// raises a shared stop flag that workers poll between pages; per-chunk
// result channels are buffered so no goroutine ever blocks on a
// consumer that has already left. Workers claim at most scanWindow
// chunks past the last one the consumer has taken, so what a stopped
// scan read in vain is bounded by a constant, not by the scheduler.
package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// scanChunkPages is the claim unit: large enough that the atomic cursor
// and channel round-trip amortize across many pages, small enough that
// chunks stripe evenly across workers and LIMIT cancellation is prompt.
const scanChunkPages = 16

// minParallelScanPages gates the executor: below two chunks there is
// nothing to overlap and goroutine setup would only add latency.
const minParallelScanPages = 2 * scanChunkPages

// scanWorkersFor resolves the worker count for a scan of t: the
// configured ceiling (default GOMAXPROCS), further capped by the chunk
// count so no worker starts without work. Returns 1 — sequential — for
// small heaps.
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
// it returns.
func runChunkedScan[T any](n storage.PageID, workers int,
	mapChunk func(lo, hi storage.PageID, stop *atomic.Bool) (T, error),
	reduce func(T) (bool, error),
) error {
	chunks := int((n + scanChunkPages - 1) / scanChunkPages)
	if chunks == 0 {
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
				lo := storage.PageID(c) * scanChunkPages
				hi := lo + scanChunkPages
				if hi > n {
					hi = n
				}
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

// scannedRows is one chunk's matching rows, decoded and filtered by the
// worker that scanned it: row i is vals[i*width:(i+1)*width], decoded
// from recs[recEnds[i-1]:recEnds[i]], a copy of its record.
type scannedRows struct {
	rids    []storage.RID
	vals    []catalog.Value
	recs    []byte
	recEnds []int
}

// scanChunk scans heap pages [lo, hi), decoding every live record and
// keeping the rows that match the conjuncts, and a copy of each one's
// record. What it keeps is the chunk's own (values and records appended
// to its arenas, strings copied out of the page), so it outlives the
// page and survives hand-off to the reducer. decode is the decode mask
// (must cover the conjunct columns).
func scanChunk(t *table, conj []boundConj, decode []bool, snap uint64, lo, hi storage.PageID, stop *atomic.Bool) (scannedRows, error) {
	var out scannedRows
	for id := lo; id < hi; id++ {
		if stop.Load() {
			return out, nil
		}
		var innerErr error
		_, err := t.heap.ScanPageAt(id, snap, func(rid storage.RID, rec []byte) bool {
			n := len(out.vals)
			vals, derr := catalog.DecodeRowInto(t.schema, rec, out.vals, decode)
			if derr != nil {
				innerErr = derr
				return false
			}
			ok, merr := matchesBound(vals[n:], conj)
			if merr != nil {
				innerErr = merr
				return false
			}
			if !ok {
				out.vals = vals[:n]
				return true
			}
			out.vals = vals
			out.rids = append(out.rids, rid)
			out.recs = append(out.recs, rec...)
			out.recEnds = append(out.recEnds, len(out.recs))
			return true
		})
		if err == nil {
			err = innerErr
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// parallelFullScan streams matching rows to fn in page order through the
// chunked executor, reading every page at the snapshot epoch the caller
// registered. fn runs on the calling goroutine only; fn returning
// false cancels outstanding workers (LIMIT early-cancel). Callers hold
// at least the table read lock.
func (db *Database) parallelFullScan(t *table, conj []boundConj, decode []bool, workers int, snap uint64, fn scanFn) error {
	width := len(t.schema.Columns)
	return runChunkedScan(t.heap.NumPages(), workers,
		func(lo, hi storage.PageID, stop *atomic.Bool) (scannedRows, error) {
			return scanChunk(t, conj, decode, snap, lo, hi, stop)
		},
		func(c scannedRows) (bool, error) {
			start := 0
			for i, end := range c.recEnds {
				row := c.vals[i*width : (i+1)*width : (i+1)*width]
				cont, err := fn(c.rids[i], row, c.recs[start:end:end])
				if err != nil || !cont {
					return cont, err
				}
				start = end
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

// parallelAggregate evaluates the accumulators over all matching rows of
// a full scan: every worker folds its chunk's rows into private
// accumulators, and the reducer merges the partials in page order —
// deterministic for a given heap layout, bitwise-identical to the
// sequential fold. Callers hold at least the table read lock and a
// registered snapshot at snap.
func (db *Database) parallelAggregate(t *table, conj []boundConj, need []bool, workers int, snap uint64, accs []aggAccum, res *Result) error {
	return runChunkedScan(t.heap.NumPages(), workers,
		func(lo, hi storage.PageID, stop *atomic.Bool) (chunkAgg, error) {
			part := chunkAgg{accs: make([]aggAccum, len(accs))}
			for i := range accs {
				part.accs[i].col = accs[i].col
			}
			// Rows are folded into the accumulators and dropped, so the
			// whole chunk decodes through one scratch row. (observe copies
			// the values it keeps; decoded strings own their memory.)
			var scratch catalog.Row
			for id := lo; id < hi; id++ {
				if stop.Load() {
					return part, nil
				}
				var innerErr error
				_, err := t.heap.ScanPageAt(id, snap, func(_ storage.RID, rec []byte) bool {
					row, derr := catalog.DecodeRowInto(t.schema, rec, scratch[:0], need)
					if derr != nil {
						innerErr = derr
						return false
					}
					scratch = row
					ok, merr := matchesBound(row, conj)
					if merr != nil {
						innerErr = merr
						return false
					}
					if !ok {
						return true
					}
					part.keys = append(part.keys, uint64(row[t.schema.Key].Int))
					for i := range part.accs {
						part.accs[i].observe(row)
					}
					return true
				})
				if err == nil {
					err = innerErr
				}
				if err != nil {
					return part, err
				}
			}
			return part, nil
		},
		func(part chunkAgg) (bool, error) {
			res.Keys = append(res.Keys, part.keys...)
			for i := range accs {
				accs[i].merge(part.accs[i])
			}
			return true, nil
		})
}
