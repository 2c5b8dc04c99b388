package storage

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// RID addresses a record: page id plus slot within the page. It is 8
// bytes, which every primary-index entry pays beside its key; Slot is as
// wide as the page's slot directory entries.
type RID struct {
	Page PageID
	Slot uint16
}

// ridAt builds the RID of slot on page id. A page counts its slots in a
// uint16, so every slot fits; the check keeps that true if the page
// format changes.
func ridAt(id PageID, slot int) RID {
	if uint(slot) > math.MaxUint16 {
		panic(fmt.Sprintf("storage: slot %d on page %d does not fit a RID", slot, id))
	}
	return RID{Page: id, Slot: uint16(slot)}
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// HeapFile stores records of a single table across the pages of one file,
// through a buffer pool. It is safe for concurrent use.
type HeapFile struct {
	mu   sync.Mutex
	pool *Pool
	// lastWithSpace remembers the most recent page an insert succeeded
	// on, the classic "last page" heuristic to avoid O(pages) scans.
	lastWithSpace PageID
	hasPages      bool
}

// NewHeapFile returns a heap over the pool's entire page file.
func NewHeapFile(pool *Pool) (*HeapFile, error) {
	if pool == nil {
		return nil, errors.New("storage: nil pool")
	}
	h := &HeapFile{pool: pool}
	if pool.pager.NumPages() > 0 {
		h.hasPages = true
		h.lastWithSpace = pool.pager.NumPages() - 1
	}
	return h, nil
}

// InsertW stores rec through ws and returns its RID: on the last page an
// insert succeeded on, else on a fresh one (pages are not searched for
// free space; deleted space is reused when an insert lands on the hinted
// page, which is enough for mostly-append workloads). The hint is probed
// with TryAcquire only — h.mu serializes hint updates and page
// allocation, and a blocking latch acquisition under it could deadlock
// against a statement that latched the hinted page and now waits to
// allocate — so a contended hint falls through to a fresh page.
func (h *HeapFile) InsertW(ws *WriteSet, rec []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hasPages {
		pg, ok, err := ws.TryAcquire(h.lastWithSpace)
		if err != nil {
			return RID{}, err
		}
		if ok {
			slot, ierr := pg.Insert(rec)
			if ierr == nil {
				ws.MarkDirty(h.lastWithSpace)
				return ridAt(h.lastWithSpace, slot), nil
			}
			if !errors.Is(ierr, ErrPageFull) {
				return RID{}, ierr
			}
		}
	}
	id, pg, err := ws.Allocate()
	if err != nil {
		return RID{}, err
	}
	slot, err := pg.Insert(rec)
	if err != nil {
		return RID{}, err
	}
	h.hasPages = true
	h.lastWithSpace = id
	return ridAt(id, slot), nil
}

// UpdateW replaces the record at rid within ws's private copies. The
// caller must already hold rid's page in ws (revalidation latches it).
// When the page cannot hold the new version the record relocates via
// InsertW and the new RID is returned.
func (h *HeapFile) UpdateW(ws *WriteSet, rid RID, rec []byte) (RID, error) {
	pg := ws.Page(rid.Page)
	if pg == nil {
		return RID{}, fmt.Errorf("storage: update %v: page not latched", rid)
	}
	uerr := pg.Update(int(rid.Slot), rec)
	if uerr == nil {
		ws.MarkDirty(rid.Page)
		return rid, nil
	}
	if !errors.Is(uerr, ErrPageFull) {
		return RID{}, fmt.Errorf("storage: update %v: %w", rid, uerr)
	}
	if err := pg.Delete(int(rid.Slot)); err != nil {
		return RID{}, fmt.Errorf("storage: relocating %v: %w", rid, err)
	}
	ws.MarkDirty(rid.Page)
	return h.InsertW(ws, rec)
}

// DeleteW removes the record at rid within ws's private copies. The
// caller must already hold rid's page in ws.
func (h *HeapFile) DeleteW(ws *WriteSet, rid RID) error {
	pg := ws.Page(rid.Page)
	if pg == nil {
		return fmt.Errorf("storage: delete %v: page not latched", rid)
	}
	if err := pg.Delete(int(rid.Slot)); err != nil {
		return fmt.Errorf("storage: delete %v: %w", rid, err)
	}
	ws.MarkDirty(rid.Page)
	return nil
}

// ScanPageAt calls fn for every live record on page id as of snapshot
// epoch snap, in slot order, until fn returns false, and reports whether
// the scan should continue to the next page. A page invisible at the
// snapshot scans as empty. The page is read as Pool.ReadAt reads it: a
// page the pool does not hold is read around it, into *buf (made when
// nil), so a scan never needs a frame. The record slice passed to fn
// aliases either a published page version, valid while snap is
// registered (Pool.BeginSnapshot), or *buf, valid until it is reused.
func (h *HeapFile) ScanPageAt(id PageID, snap uint64, buf **Page, fn func(rid RID, rec []byte) bool) (cont bool, err error) {
	pg, vis, err := h.pool.ReadAt(id, snap, buf)
	if err != nil {
		return false, err
	}
	if !vis {
		return true, nil
	}
	cont = true
	pg.Records(func(slot int, rec []byte) bool {
		if !fn(ridAt(id, slot), rec) {
			cont = false
			return false
		}
		return true
	})
	return cont, nil
}

// NumPages returns the heap's page count — the range a scan covers. The
// parallel scan executor partitions [0, NumPages()) across its workers.
// A page is counted only once its frame is in the pool (see
// Pager.Allocate).
func (h *HeapFile) NumPages() PageID { return h.pool.pager.NumPages() }

// Pool returns the underlying buffer pool (for stats and cache control).
func (h *HeapFile) Pool() *Pool { return h.pool }
