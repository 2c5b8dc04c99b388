package storage

// WriteSet is one statement's private view of the pages it mutates, the
// unit of the concurrent write path. Acquiring a page pins its frame,
// takes the per-frame write latch, and snapshots the current version
// into a private copy; the statement mutates only these copies. Commit
// is three steps with distinct owners:
//
//  1. Images() lists exactly the dirtied private copies for the WAL —
//     never another statement's uncommitted pages — each with the
//     committed version it was copied from, which the latch holds steady.
//  2. Publish() installs the copies as the frames' current versions,
//     all stamped with one fresh pool epoch, under the pool's version
//     mutex — so snapshot readers see the whole statement or none of it.
//  3. Release() drops latches and pins.
//
// On a WAL error the caller skips Publish: the private copies are
// discarded, published state never changed, and the statement rolled
// back by construction.
//
// Deadlock discipline (DESIGN.md §14): a statement may block waiting
// for a latch only when the requested page is numbered strictly above
// every page it already holds. Acquire enforces this itself — a request
// at or below the high-water mark degrades to a try, reporting
// contention instead of blocking — so any wait chain is strictly
// ascending in PageID and cycles are impossible. The insert path's
// last-page-hint probe additionally must use TryAcquire because it runs
// under the heap allocation mutex.
type WriteSet struct {
	pool    *Pool
	entries map[PageID]*wsEntry
	// maxHeld is the highest PageID latched so far (meaningful only when
	// entries is non-empty). Blocking above it keeps waits-for chains
	// strictly ascending.
	maxHeld PageID
}

type wsEntry struct {
	f       *frame
	page    *Page // private copy; becomes the published version on commit
	dirtied bool
}

// NewWriteSet returns an empty write set over the pool.
func NewWriteSet(pool *Pool) *WriteSet {
	return &WriteSet{pool: pool, entries: make(map[PageID]*wsEntry)}
}

// Page returns the private copy of an acquired page, or nil.
func (ws *WriteSet) Page(id PageID) *Page {
	if en, ok := ws.entries[id]; ok {
		return en.page
	}
	return nil
}

// MarkDirty records that the page's private copy was mutated and must
// be logged and published.
func (ws *WriteSet) MarkDirty(id PageID) {
	if en, ok := ws.entries[id]; ok {
		en.dirtied = true
	}
}

// Acquire latches the page and returns the private copy, idempotent
// for pages already held. It blocks on a held latch only when id is
// strictly above every page this set holds — the discipline that keeps
// waits-for chains ascending and therefore acyclic. At or below the
// high-water mark it degrades to TryAcquire: ok=false then means the
// latch is contended and the caller must skip or restart rather than
// wait.
func (ws *WriteSet) Acquire(id PageID) (*Page, bool, error) {
	if en, ok := ws.entries[id]; ok {
		return en.page, true, nil
	}
	if len(ws.entries) > 0 && id <= ws.maxHeld {
		return ws.TryAcquire(id)
	}
	f, err := ws.pool.pinFrame(id)
	if err != nil {
		return nil, false, err
	}
	ws.pool.latchAcq.Add(1)
	if !f.wmu.TryLock() {
		ws.pool.latchWaits.Add(1)
		f.wmu.Lock()
	}
	return ws.adopt(f), true, nil
}

// TryAcquire latches the page only if the latch is free, returning
// (nil, false, nil) on contention. The insert path uses it under the
// heap's allocation mutex, where blocking could deadlock.
func (ws *WriteSet) TryAcquire(id PageID) (*Page, bool, error) {
	if en, ok := ws.entries[id]; ok {
		return en.page, true, nil
	}
	f, err := ws.pool.pinFrame(id)
	if err != nil {
		return nil, false, err
	}
	if !f.wmu.TryLock() {
		f.pins.Add(-1)
		return nil, false, nil
	}
	ws.pool.latchAcq.Add(1)
	return ws.adopt(f), true, nil
}

// adopt records a freshly latched frame and snapshots its current
// version into the private copy.
func (ws *WriteSet) adopt(f *frame) *Page {
	np := NewPage()
	*np = *f.curPage()
	ws.entries[f.id] = &wsEntry{f: f, page: np}
	if f.id > ws.maxHeld {
		ws.maxHeld = f.id
	}
	return np
}

// Allocate creates a new page, latched and private to this write set.
// The frame is published in the pool at the invisible epoch: no
// snapshot can see it until Publish commits it.
func (ws *WriteSet) Allocate() (PageID, *Page, error) {
	f, err := ws.pool.allocateFrame(invisibleEpoch)
	if err != nil {
		return 0, nil, err
	}
	ws.pool.latchAcq.Add(1)
	f.wmu.Lock() // uncontended: the frame is not yet visible to writers
	np := NewPage()
	ws.entries[f.id] = &wsEntry{f: f, page: np, dirtied: true}
	if f.id > ws.maxHeld {
		ws.maxHeld = f.id
	}
	return f.id, np, nil
}

// Images lists the dirtied private copies for the WAL in ascending
// PageID order, each with its frame's current (committed) version as the
// base a patch is taken against; a page Allocate made has none. Nothing
// is copied: the slices alias the pages, which stay put until Publish.
func (ws *WriteSet) Images() []PageImage {
	var out []PageImage
	for id, en := range ws.entries {
		if !en.dirtied {
			continue
		}
		im := PageImage{ID: id, Image: en.page.Bytes()}
		if pv := en.f.cur.Load(); pv.epoch != invisibleEpoch {
			im.Base = pv.page.Bytes()
		}
		out = append(out, im)
	}
	sortPageImages(out)
	return out
}

// Publish installs every dirtied private copy as its frame's current
// version, all stamped with one freshly bumped epoch, retiring the
// displaced versions onto the frames' chains. Callers serialize Publish
// with index maintenance (the engine holds its index mutex across both)
// so a snapshot's epoch and the index state it pairs with stay
// mutually consistent.
func (ws *WriteSet) Publish() {
	b := ws.pool
	b.verMu.Lock()
	e := b.epoch.Load() + 1
	for _, en := range ws.entries {
		if !en.dirtied {
			continue
		}
		pv := en.f.cur.Load()
		if pv.epoch != invisibleEpoch {
			b.retireLocked(en.f, *pv, e)
		}
		en.f.cur.Store(&pageVersion{epoch: e, page: en.page})
		en.f.dirty.Store(true)
	}
	b.epoch.Store(e)
	b.verMu.Unlock()
}

// Release drops every latch and pin. Safe to call exactly once, with or
// without a preceding Publish.
func (ws *WriteSet) Release() {
	for _, en := range ws.entries {
		en.f.wmu.Unlock()
		en.f.pins.Add(-1)
	}
	ws.entries = nil
}

// Len reports how many pages the write set holds.
func (ws *WriteSet) Len() int { return len(ws.entries) }
