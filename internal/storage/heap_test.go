package storage

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// heapT drives a HeapFile the way the engine does: every mutation in a
// write set of its own, published at once; every read at the pool's
// current epoch.
type heapT struct {
	t *testing.T
	*HeapFile
}

func tempHeap(t *testing.T, capacity int) heapT {
	t.Helper()
	pool := tempPool(t, capacity)
	h, err := NewHeapFile(pool)
	if err != nil {
		t.Fatal(err)
	}
	return heapT{t, h}
}

// write runs fn in a write set holding the given pages and publishes it
// unless fn fails.
func (h heapT) write(fn func(ws *WriteSet) error, pages ...PageID) error {
	ws := NewWriteSet(h.pool)
	defer ws.Release()
	for _, id := range pages {
		if _, ok, err := ws.Acquire(id); err != nil || !ok {
			h.t.Fatalf("acquire page %d: ok=%v err=%v", id, ok, err)
		}
	}
	err := fn(ws)
	if err == nil {
		ws.Publish()
	}
	return err
}

func (h heapT) Insert(rec []byte) (rid RID, err error) {
	err = h.write(func(ws *WriteSet) error {
		rid, err = h.InsertW(ws, rec)
		return err
	})
	return rid, err
}

func (h heapT) Update(rid RID, rec []byte) (nrid RID, err error) {
	err = h.write(func(ws *WriteSet) error {
		nrid, err = h.UpdateW(ws, rid, rec)
		return err
	}, rid.Page)
	return nrid, err
}

func (h heapT) Delete(rid RID) error {
	return h.write(func(ws *WriteSet) error { return h.DeleteW(ws, rid) }, rid.Page)
}

func (h heapT) Get(rid RID) (out []byte, err error) {
	pg, ok, err := h.pool.FetchAt(rid.Page, h.pool.Epoch())
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("page %d invisible", rid.Page)
	}
	rec, err := pg.Record(int(rid.Slot))
	return append([]byte(nil), rec...), err
}

// Scan walks every page at the current epoch, as the engine's full-heap
// reader does.
func (h heapT) Scan(fn func(rid RID, rec []byte) bool) error {
	snap := h.pool.Epoch()
	var buf *Page
	for id := PageID(0); id < h.NumPages(); id++ {
		if cont, err := h.ScanPageAt(id, snap, &buf, fn); err != nil || !cont {
			return err
		}
	}
	return nil
}

// TestRIDIsEightBytes: every primary-index entry holds a RID beside its
// 8-byte key.
func TestRIDIsEightBytes(t *testing.T) {
	if sz := unsafe.Sizeof(RID{}); sz != 8 {
		t.Fatalf("RID is %d bytes, want 8", sz)
	}
	if r := ridAt(7, math.MaxUint16); r.Page != 7 || r.Slot != math.MaxUint16 {
		t.Fatalf("ridAt(7, max) = %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ridAt accepted a slot past uint16")
		}
	}()
	ridAt(7, math.MaxUint16+1)
}

func TestHeapInsertGet(t *testing.T) {
	h := tempHeap(t, 8)
	rid, err := h.Insert([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "first" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if rid.String() == "" {
		t.Fatal("RID String empty")
	}
	if n := h.pool.Pinned(); n != 0 {
		t.Fatalf("%d pins left after the write set was released", n)
	}
}

func TestHeapSpansPages(t *testing.T) {
	h := tempHeap(t, 8)
	rec := make([]byte, 1000)
	var rids []RID
	for i := 0; i < 20; i++ { // ~3 records/page ⇒ several pages
		rec[0] = byte(i)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := map[PageID]bool{}
	for i, rid := range rids {
		pages[rid.Page] = true
		got, err := h.Get(rid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("record %d: %v, %v", i, got[0], err)
		}
	}
	if len(pages) < 2 {
		t.Fatalf("all records on %d page(s)", len(pages))
	}
}

func TestHeapDelete(t *testing.T) {
	h := tempHeap(t, 4)
	rid, _ := h.Insert([]byte("bye"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Fatal("deleted record readable")
	}
	if err := h.Delete(rid); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestHeapUpdateInPlace(t *testing.T) {
	h := tempHeap(t, 4)
	rid, _ := h.Insert([]byte("aaaa"))
	nrid, err := h.Update(rid, []byte("bbbb"))
	if err != nil {
		t.Fatal(err)
	}
	if nrid != rid {
		t.Fatalf("same-size update moved record: %v → %v", rid, nrid)
	}
	got, _ := h.Get(nrid)
	if string(got) != "bbbb" {
		t.Fatalf("update lost: %q", got)
	}
}

func TestHeapUpdateRelocates(t *testing.T) {
	h := tempHeap(t, 8)
	// Fill a page almost completely.
	var rid RID
	var err error
	filler := make([]byte, 1900)
	if rid, err = h.Insert([]byte("victim")); err != nil {
		t.Fatal(err)
	}
	if _, err = h.Insert(filler); err != nil {
		t.Fatal(err)
	}
	if _, err = h.Insert(filler); err != nil {
		t.Fatal(err)
	}
	// Grow victim beyond what its page can hold.
	big := bytes.Repeat([]byte{9}, 3000)
	nrid, err := h.Update(rid, big)
	if err != nil {
		t.Fatal(err)
	}
	if nrid == rid {
		t.Fatal("record should have moved pages")
	}
	got, err := h.Get(nrid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatal("relocated record corrupted")
	}
	if _, err := h.Get(rid); err == nil {
		t.Fatal("old location still live")
	}
}

func TestHeapScan(t *testing.T) {
	h := tempHeap(t, 8)
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		s := fmt.Sprintf("row-%02d", i)
		if _, err := h.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
		want[s] = true
	}
	got := map[string]bool{}
	err := h.Scan(func(rid RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d, want %d", len(got), len(want))
	}
	// Early stop.
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestHeapScanSkipsDeleted(t *testing.T) {
	h := tempHeap(t, 4)
	r1, _ := h.Insert([]byte("keep"))
	r2, _ := h.Insert([]byte("drop"))
	_ = r1
	h.Delete(r2)
	var seen []string
	h.Scan(func(rid RID, rec []byte) bool {
		seen = append(seen, string(rec))
		return true
	})
	if len(seen) != 1 || seen[0] != "keep" {
		t.Fatalf("Scan = %v", seen)
	}
}

func TestHeapNilPool(t *testing.T) {
	if _, err := NewHeapFile(nil); err == nil {
		t.Fatal("nil pool accepted")
	}
}

func TestHeapManyRecordsThroughTinyPool(t *testing.T) {
	// Pool of 2 frames forces constant eviction; data must survive.
	h := tempHeap(t, 2)
	const n = 500
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-padding-padding", i))
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := fmt.Sprintf("record-%04d-padding-padding", i); string(got) != want {
			t.Fatalf("record %d = %q", i, got)
		}
	}
}
