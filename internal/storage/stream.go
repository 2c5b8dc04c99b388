package storage

import (
	"fmt"

	"repro/internal/fault"
)

// batchPages bounds the distinct pages one ReadBatch resolves, and so
// the pages it reads around the pool: 8 pages, 32 KiB of buffer. Every
// pooled statement scratch grows to that buffer once it has read a wide
// range and keeps it, so the bound is resident memory; a wide range
// still reads up to 8 pages a system call.
const batchPages = 8

// PageBatch holds the heap pages of a run of RIDs, resolved at one
// snapshot by Pool.ReadBatch, for a statement that reads them in turn.
// Its buffers are reused from batch to batch, so a page it returns is
// valid only until the next ReadBatch into it. The zero value is ready
// to use; a PageBatch is not safe for concurrent use.
type PageBatch struct {
	ents []batchEnt
	last int    // the entry At found last: rows of a page come in a run
	buf  []byte // the streamed pages, PageSize each, in ascending id
}

// batchEnt is one distinct page of a batch.
type batchEnt struct {
	id    PageID
	page  *Page
	sh    *poolShard // counts the entry's row reads
	reads int64      // rows read from it since the batch was filled
	vis   bool       // the page has a version visible at the snapshot
	cold  bool       // not resident: read around the pool
}

// find returns the index of id's entry, or -1.
func (pb *PageBatch) find(id PageID) int {
	if pb.last < len(pb.ents) && pb.ents[pb.last].id == id {
		return pb.last
	}
	for i := range pb.ents {
		if pb.ents[i].id == id {
			pb.last = i
			return i
		}
	}
	return -1
}

// At returns the page id resolved to in the last ReadBatch, or
// ok=false when it has no version visible at that batch's snapshot. id
// must be the page of one of the RIDs the batch covered. Each call is one
// row read for the pool's counters, as a FetchAt is: the first row read
// from a cold page is its miss, every other row read a hit. The entry
// counts them, and the pool's counters receive them when the batch is
// refilled or cleared (count): a statement reads the counters after its
// last Clear, and a row costs no write to a shared cache line.
func (pb *PageBatch) At(id PageID) (*Page, bool) {
	e := &pb.ents[pb.find(id)]
	e.reads++
	return e.page, e.vis
}

// count adds the batch's row reads to the pool's counters, once per
// page read from.
func (pb *PageBatch) count() {
	for i := range pb.ents {
		e := &pb.ents[i]
		if e.reads == 0 {
			continue
		}
		hits := e.reads
		if e.cold {
			e.sh.misses.Add(1)
			hits--
		}
		if hits > 0 {
			e.sh.hits.Add(hits)
		}
	}
}

// Clear counts the batch's row reads and drops its references to the
// pages it resolved, so a PageBatch kept for reuse does not hold pages
// the pool has let go. Its buffer is kept.
func (pb *PageBatch) Clear() {
	pb.count()
	clear(pb.ents)
	pb.ents = pb.ents[:0]
}

// ReadBatch resolves, at the registered snapshot snap, the pages of the
// longest prefix of rids that touches at most batchPages distinct pages,
// and returns that prefix's length (at least one when rids is not
// empty). Read each row's page with pb.At before the next ReadBatch.
//
// A resident page resolves to its frame's version at snap, as FetchAt
// would. A page that is not resident does not enter the pool: it is
// read from the file into pb's own buffers, one pager call per run of
// consecutive ids, and is visible iff the epoch of its last write-back
// (gone) is ≤ snap — exactly what versionAt would answer for a frame
// reloaded from the file. That costs no frame, no eviction and no
// allocation once pb's buffer has grown.
//
// Why the file's bytes are the version snap sees (DESIGN §14, "Cold
// pages go around the pool"), given that the caller holds the table's
// read lock and registered snap with BeginSnapshot before it collected
// rids:
//   - the file holds a page's persisted version, written back only by
//     eviction and FlushAll. FlushAll runs under the exclusive table
//     lock, so not while the caller reads;
//   - residency and the gone epoch are read together under the shard
//     mutex, which eviction holds from write-back to removal, so a page
//     found absent has its last write-back complete and recorded;
//   - a writer may load the page after that, and publish a new version
//     of it. The version it displaced is retained on the frame's chain
//     for snap, and the sweep does not evict a frame whose chain feeds a
//     registered snapshot, so nothing writes the page back until snap
//     ends.
//
// Latch order is the pool's: one shard mutex at a time, none held
// across the read.
func (b *Pool) ReadBatch(pb *PageBatch, rids []RID, snap uint64) (int, error) {
	pb.count()
	pb.ents = pb.ents[:0]
	pb.last = 0
	n := 0
	for ; n < len(rids); n++ {
		id := rids[n].Page
		if pb.find(id) >= 0 {
			continue
		}
		if len(pb.ents) == batchPages {
			break
		}
		e, err := b.resolveAt(id, snap)
		if err != nil {
			return 0, err
		}
		pb.ents = append(pb.ents, e)
	}
	if err := b.stream(pb); err != nil {
		return 0, err
	}
	return n, nil
}

// ReadAt resolves page id at the registered snapshot snap as ReadBatch
// resolves each of its pages, for a reader that walks pages one at a
// time (the engine's full-heap walk): a resident page to its frame's
// version there, a page that is not resident read from the file into
// *buf, visible iff its persisted version is. When *buf is nil a fresh
// page is made and left there, so a caller that reuses its buffer makes
// one only once it meets such a page. ReadAt installs no frame, so it
// evicts nothing and cannot fail for want of one, however many frames
// writers and snapshots hold. ReadBatch's caller contract holds: snap
// was registered before the caller's table read lock was taken, and is
// held. The read counts as one hit or, for a page the pool does not
// hold, one miss, as a FetchAt does.
func (b *Pool) ReadAt(id PageID, snap uint64, buf **Page) (*Page, bool, error) {
	// A resident page is FetchAt's hit, inline: a warm scan pays it per
	// page.
	sh := b.shard(id)
	if f := sh.lookup(id); f != nil && f.loaded.Load() {
		sh.hits.Add(1)
		f.touch()
		pg, vis := f.versionAt(snap)
		return pg, vis, nil
	}
	e, err := b.resolveAt(id, snap)
	if err != nil {
		return nil, false, err
	}
	if !e.cold {
		sh.hits.Add(1)
		return e.page, e.vis, nil
	}
	sh.misses.Add(1)
	if !e.vis {
		return nil, false, nil
	}
	if err := fault.Check(fault.PoolLoad); err != nil {
		return nil, false, fmt.Errorf("storage: loading page %d: %w", id, wrapIO(err))
	}
	if *buf == nil {
		*buf = new(Page)
	}
	if err := b.pager.Read(id, *buf); err != nil {
		return nil, false, err
	}
	b.streamed.Add(1)
	return *buf, true, nil
}

// resolveAt resolves one page of a batch at snap: a resident page to its
// version there, a page that is not resident to a cold entry, visible
// when its persisted version is, whose page stream reads.
func (b *Pool) resolveAt(id PageID, snap uint64) (batchEnt, error) {
	sh := b.shard(id)
	e := batchEnt{id: id, sh: sh}
	if f := sh.lookup(id); f != nil && f.loaded.Load() {
		f.touch()
		e.page, e.vis = f.versionAt(snap)
		return e, nil
	}
	// The probe's miss is only a hint; under the mutex it is exact, and
	// the gone epoch read with it is the persisted version's.
	sh.mu.Lock()
	if f := sh.lookup(id); f != nil && f.tryPin() {
		sh.mu.Unlock()
		if _, err := b.awaitLoaded(f); err != nil {
			return e, err
		}
		e.page, e.vis = f.versionAt(snap)
		b.unpin(f)
		return e, nil
	}
	persisted := b.goneAt(sh, id)
	sh.mu.Unlock()
	e.cold = true
	e.vis = persisted <= snap
	return e, nil
}

// stream reads the batch's cold visible pages into pb.buf in ascending
// id, one ReadRun per run of consecutive ids.
func (b *Pool) stream(pb *PageBatch) error {
	var order [batchPages]uint8
	cold := 0
	for i := range pb.ents {
		if !pb.ents[i].cold || !pb.ents[i].vis {
			continue
		}
		// Insertion sort by id: a range's pages mostly come in order.
		j := cold
		for ; j > 0 && pb.ents[order[j-1]].id > pb.ents[i].id; j-- {
			order[j] = order[j-1]
		}
		order[j] = uint8(i)
		cold++
	}
	if cold == 0 {
		return nil
	}
	if need := cold * PageSize; len(pb.buf) < need {
		// Grow in powers of two pages: a pooled batch settles on one
		// buffer, at most batchPages long.
		size := PageSize
		for size < need {
			size *= 2
		}
		pb.buf = make([]byte, size)
	}
	for s := range cold {
		e := &pb.ents[order[s]]
		e.page = (*Page)(pb.buf[s*PageSize : (s+1)*PageSize])
		// The loading-frame failpoint guards this fill as it guards a
		// miss's.
		if err := fault.Check(fault.PoolLoad); err != nil {
			return fmt.Errorf("storage: loading page %d: %w", e.id, wrapIO(err))
		}
	}
	for s := 0; s < cold; {
		first := pb.ents[order[s]].id
		r := s + 1
		for r < cold && pb.ents[order[r]].id == first+PageID(r-s) {
			r++
		}
		if err := b.pager.ReadRun(first, pb.buf[s*PageSize:r*PageSize]); err != nil {
			return err
		}
		s = r
	}
	b.streamed.Add(int64(cold))
	return nil
}
