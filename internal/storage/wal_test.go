package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func tempWAL(t *testing.T) (*WAL, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

func image(fill byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	w, _ := tempWAL(t)
	batch1 := []PageImage{{ID: 0, Image: image(1)}, {ID: 3, Image: image(2)}}
	batch2 := []PageImage{{ID: 0, Image: image(9)}}
	if err := w.AppendBatch(batch1); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(batch2); err != nil {
		t.Fatal(err)
	}
	var got []PageImage
	applied, err := w.Replay(func(im PageImage) error {
		got = append(got, im)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d", applied)
	}
	// Each page once, as the last committed batch left it, in page order:
	// page 0 image(9), page 3 image(2).
	if len(got) != 2 {
		t.Fatalf("images = %d", len(got))
	}
	if got[0].ID != 0 || got[0].Image[0] != 9 {
		t.Fatalf("got[0] = %d/%d", got[0].ID, got[0].Image[0])
	}
	if got[1].ID != 3 || got[1].Image[0] != 2 {
		t.Fatalf("got[1] = %d/%d", got[1].ID, got[1].Image[0])
	}
}

func TestWALEmptyBatchNoop(t *testing.T) {
	w, _ := tempWAL(t)
	if err := w.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatalf("size = %d", w.Size())
	}
}

func TestWALRejectsBadImage(t *testing.T) {
	w, _ := tempWAL(t)
	if err := w.AppendBatch([]PageImage{{ID: 1, Image: []byte("short")}}); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestWALTornTailDiscarded(t *testing.T) {
	w, path := tempWAL(t)
	if err := w.AppendBatch([]PageImage{{ID: 1, Image: image(7)}}); err != nil {
		t.Fatal(err)
	}
	committed := w.Size()
	if err := w.AppendBatch([]PageImage{{ID: 2, Image: image(8)}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Crash mid-second-batch: truncate into the middle of its record.
	if err := os.Truncate(path, committed+walPageRecordSize/2); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var got []PageImage
	applied, err := w2.Replay(func(im PageImage) error {
		got = append(got, im)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("applied=%d got=%v", applied, got)
	}
}

func TestWALUncommittedBatchDiscarded(t *testing.T) {
	w, path := tempWAL(t)
	if err := w.AppendBatch([]PageImage{{ID: 1, Image: image(7)}}); err != nil {
		t.Fatal(err)
	}
	// Full record written but commit byte missing: chop the final byte.
	w.Close()
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	applied, err := w2.Replay(func(PageImage) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("uncommitted batch applied: %d", applied)
	}
}

func TestWALCorruptImageStopsReplay(t *testing.T) {
	w, path := tempWAL(t)
	w.AppendBatch([]PageImage{{ID: 1, Image: image(7)}})
	w.Close()
	// Flip a payload byte: CRC must catch it.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	applied, err := w2.Replay(func(PageImage) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("corrupt batch applied: %d", applied)
	}
}

func TestWALTruncate(t *testing.T) {
	w, _ := tempWAL(t)
	w.AppendBatch([]PageImage{{ID: 1, Image: image(7)}})
	if w.Size() == 0 {
		t.Fatal("size 0 after append")
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatalf("size after truncate = %d", w.Size())
	}
	applied, _ := w.Replay(func(PageImage) error { return nil })
	if applied != 0 {
		t.Fatal("replay after truncate applied batches")
	}
}

func TestWALClosedOperationsFail(t *testing.T) {
	w, _ := tempWAL(t)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]PageImage{{ID: 1, Image: image(1)}}); err == nil {
		t.Fatal("append on closed wal")
	}
	if _, err := w.Replay(func(PageImage) error { return nil }); err == nil {
		t.Fatal("replay on closed wal")
	}
	if err := w.Truncate(); err == nil {
		t.Fatal("truncate on closed wal")
	}
	if err := w.Close(); err == nil {
		t.Fatal("double close")
	}
}

func TestWALSyncedMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "synced.wal")
	w, err := OpenWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch([]PageImage{{ID: 1, Image: image(3)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
}

func TestPagerWriteImageExtends(t *testing.T) {
	p := tempPager(t)
	if err := p.WriteImage(5, image(4)); err != nil {
		t.Fatal(err)
	}
	if p.NumPages() != 6 {
		t.Fatalf("NumPages = %d", p.NumPages())
	}
	pg := NewPage()
	if err := p.Read(5, pg); err != nil {
		t.Fatal(err)
	}
	if pg.Bytes()[0] != 4 {
		t.Fatal("image content lost")
	}
	// Intermediate pages are valid empty pages.
	if err := p.Read(2, pg); err != nil {
		t.Fatal(err)
	}
	if pg.NumSlots() != 0 {
		t.Fatal("gap page not empty")
	}
	if err := p.WriteImage(1, []byte("short")); err == nil {
		t.Fatal("short image accepted")
	}
}

// TestWriteSetImages: a write set logs exactly the pages it dirtied —
// not one it merely latched — each with its committed version as the
// base, and the batch the log encodes is detached from the private page
// it was rendered from.
func TestWriteSetImages(t *testing.T) {
	pool := tempPool(t, 4)
	id, id2 := newPage(t, pool, []byte("dirty")), newPage(t, pool)
	ws := NewWriteSet(pool)
	defer ws.Release()
	pg, _, err := ws.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Acquire(id2); err != nil { // latched, left clean
		t.Fatal(err)
	}
	ws.MarkDirty(id)
	images := ws.Images()
	if len(images) != 1 || images[0].ID != id {
		t.Fatalf("Images = %v", images)
	}
	committed, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id)
	if images[0].Base == nil || !bytes.Equal(images[0].Base, committed.Bytes()) {
		t.Fatal("image's base is not the page's committed version")
	}
	w, _ := tempWAL(t)
	if err := w.AppendBatch(images); err != nil {
		t.Fatal(err)
	}
	pg.Insert([]byte("more"))
	var replayed []PageImage
	if _, err := w.Replay(func(im PageImage) error {
		replayed = append(replayed, im)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fresh := NewPage()
	fresh.LoadBytes(replayed[0].Image)
	if len(replayed) != 1 || fresh.NumSlots() != 1 {
		t.Fatal("the logged batch aliased the private page")
	}
}
