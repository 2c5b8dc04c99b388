package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// edited returns a copy of base with n bytes at off set to fill.
func edited(base []byte, off, n int, fill byte) []byte {
	out := append([]byte(nil), base...)
	for i := off; i < off+n; i++ {
		out[i] = fill
	}
	return out
}

// appendSized appends one batch and returns how many bytes it added.
func appendSized(t *testing.T, w *WAL, images ...PageImage) int64 {
	t.Helper()
	before := w.Size()
	if err := w.AppendBatch(images); err != nil {
		t.Fatal(err)
	}
	return w.Size() - before
}

// replayPages replays the log into a map of page contents.
func replayPages(t *testing.T, w *WAL) map[PageID][]byte {
	t.Helper()
	got := make(map[PageID][]byte)
	if _, err := w.Replay(func(im PageImage) error {
		got[im.ID] = append([]byte(nil), im.Image...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWALImageOncePerTruncation: a page's first record after the log was
// emptied is its image, its later ones patches of the bytes that changed;
// a page with no base, and one that changed by more than half a page, is
// an image however often it was logged. Replay rebuilds the last version.
func TestWALImageOncePerTruncation(t *testing.T) {
	w, _ := tempWAL(t)
	const image1 = walPageRecordSize + 1
	v0 := image(1)
	v1 := edited(v0, 100, 20, 2)
	if n := appendSized(t, w, PageImage{ID: 5, Image: v1, Base: v0}); n != image1 {
		t.Fatalf("first record of page 5 added %d bytes, want its image (%d)", n, image1)
	}
	v2 := edited(v1, 4000, 10, 3)
	want := int64(walPatchHeader + walRunHeader + 10 + 1)
	if n := appendSized(t, w, PageImage{ID: 5, Image: v2, Base: v1}); n != want {
		t.Fatalf("second record of page 5 added %d bytes, want a 10-byte patch (%d)", n, want)
	}
	if n := appendSized(t, w, PageImage{ID: 5, Image: v2, Base: v2}); n != walPatchHeader+1 {
		t.Fatalf("an unchanged page added %d bytes, want an empty patch (%d)", n, walPatchHeader+1)
	}
	if n := appendSized(t, w, PageImage{ID: 5, Image: edited(v2, 0, 8, 4)}); n != image1 {
		t.Fatalf("a record with no base added %d bytes, want an image", n)
	}
	v3 := edited(v2, 0, PageSize/2+1, 5)
	if n := appendSized(t, w, PageImage{ID: 5, Image: v3, Base: edited(v2, 0, 8, 4)}); n != image1 {
		t.Fatalf("a change of over half a page added %d bytes, want an image", n)
	}
	if got := replayPages(t, w); len(got) != 1 || !bytes.Equal(got[5], v3) {
		t.Fatal("replay did not rebuild page 5's last version")
	}

	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	v4 := edited(v3, 10, 1, 6)
	if n := appendSized(t, w, PageImage{ID: 5, Image: v4, Base: v3}); n != image1 {
		t.Fatalf("first record after Truncate added %d bytes, want the image", n)
	}
	if n := appendSized(t, w, PageImage{ID: 5, Image: edited(v4, 11, 1, 7), Base: v4}); n != walPatchHeader+walRunHeader+1+1 {
		t.Fatalf("second record after Truncate added %d bytes, want a one-byte patch", n)
	}
}

// TestWALTornAppendLeavesPageUnmarked: a page is marked logged only once
// its image's batch is on file, so after a torn first append the next
// commit of the page logs its image again and recovery rebuilds it.
func TestWALTornAppendLeavesPageUnmarked(t *testing.T) {
	w, path := tempWAL(t)
	v0 := image(1)
	v1 := edited(v0, 64, 8, 2)
	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{
		Site: fault.WALAppend, Kind: fault.Torn, TornBytes: 100, Count: 1,
	}))
	err := w.AppendBatch([]PageImage{{ID: 3, Image: v1, Base: v0}})
	fault.Disable()
	if !errors.Is(err, ErrIO) {
		t.Fatalf("torn append error = %v, want ErrIO", err)
	}
	// The commit rolled back, so its base is still v0.
	if n := appendSized(t, w, PageImage{ID: 3, Image: v1, Base: v0}); n != walPageRecordSize+1 {
		t.Fatalf("commit after a torn first append added %d bytes, want the image", n)
	}
	v2 := edited(v1, 200, 3, 9)
	if n := appendSized(t, w, PageImage{ID: 3, Image: v2, Base: v1}); n >= 64 {
		t.Fatalf("commit after the image added %d bytes, want a patch", n)
	}
	w.Close()
	w2, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayPages(t, w2); !bytes.Equal(got[3], v2) {
		t.Fatal("recovery did not rebuild page 3")
	}
}

// TestWALFailedAppendCutOffByNextCommit: the bytes a torn append leaves
// past the logical end stay there for a crash to leave behind, but the
// next commit cuts them off before it writes, so a shorter batch never
// sits in front of a failed write's remains (in a torn group write,
// whole batches its callers were told failed).
func TestWALFailedAppendCutOffByNextCommit(t *testing.T) {
	w, path := tempWAL(t)
	v0 := image(1)
	appendSized(t, w, PageImage{ID: 1, Image: v0})
	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{
		Site: fault.WALAppend, Kind: fault.Torn, TornBytes: 3000, Count: 1,
	}))
	err := w.AppendBatch([]PageImage{{ID: 2, Image: image(2)}})
	fault.Disable()
	if !errors.Is(err, ErrIO) {
		t.Fatalf("torn append error = %v, want ErrIO", err)
	}
	size := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if size() != w.Size()+3000 {
		t.Fatalf("file of %d bytes after the torn append, want its 3000 bytes past the logical end %d", size(), w.Size())
	}
	v1 := edited(v0, 40, 2, 9)
	appendSized(t, w, PageImage{ID: 1, Image: v1, Base: v0})
	if size() != w.Size() {
		t.Fatalf("file of %d bytes after the next commit, logical end %d: the failed append's bytes are still behind it", size(), w.Size())
	}
	if got := replayPages(t, w); len(got) != 1 || !bytes.Equal(got[1], v1) {
		t.Fatal("replay did not rebuild page 1 alone")
	}
}

// TestWALOrphanPatch: a committed patch with no image of its page before
// it fails Replay, naming the page and the offset; the same patch in an
// uncommitted tail is a torn tail and is dropped.
func TestWALOrphanPatch(t *testing.T) {
	w, path := tempWAL(t)
	v0 := image(1)
	v1 := edited(v0, 8, 8, 2)
	appendSized(t, w, PageImage{ID: 7, Image: v0, Base: v0})
	imageEnd := w.Size()
	appendSized(t, w, PageImage{ID: 7, Image: v1, Base: v0})
	w.Close()
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patchBatch := log[imageEnd:]
	if patchBatch[0] != walKindPatch {
		t.Fatalf("second batch starts with kind %d, want a patch", patchBatch[0])
	}

	replayBytes := func(data []byte) (int, map[PageID][]byte, error) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(path, false)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		got := make(map[PageID][]byte)
		n, err := w.Replay(func(im PageImage) error {
			got[im.ID] = append([]byte(nil), im.Image...)
			return nil
		})
		return n, got, err
	}

	// Committed orphan: the patch batch alone.
	_, _, err = replayBytes(patchBatch)
	if err == nil || !strings.Contains(err.Error(), "page 7") || !strings.Contains(err.Error(), "offset 0") {
		t.Fatalf("committed orphan patch: Replay error %v, want one naming page 7 at offset 0", err)
	}
	if _, err := WALBatches(patchBatch); err == nil {
		t.Fatal("WALBatches accepted a committed orphan patch")
	}

	// Torn-tail orphan: a committed image of another page, then the patch
	// without its commit marker.
	other := image(4)
	var tail []byte
	tail = append(tail, walKindPage, 9, 0, 0, 0)
	tail = binary.LittleEndian.AppendUint32(tail, crc32.Checksum(other, walCRC))
	tail = append(tail, other...)
	tail = append(tail, walKindCommit)
	tail = append(tail, patchBatch[:len(patchBatch)-1]...)
	n, got, err := replayBytes(tail)
	if err != nil || n != 1 || len(got) != 1 || !bytes.Equal(got[9], other) {
		t.Fatalf("torn-tail orphan: replay = %d batches, %d pages, err %v; want the one committed image", n, len(got), err)
	}

	// Control: the whole log rebuilds v1.
	n, got, err = replayBytes(log)
	if err != nil || n != 2 || !bytes.Equal(got[7], v1) {
		t.Fatalf("whole log: %d batches, err %v", n, err)
	}
}

// TestWALGroupCommitPatches: committers racing through the group-commit
// path, each patching its own page round after round, leave a log that
// rebuilds every page's last version; every page's image went in once.
func TestWALGroupCommitPatches(t *testing.T) {
	w, _ := tempWAL(t)
	w.SetGroupWindow(time.Millisecond)
	const writers, rounds = 4, 50
	final := make([][]byte, writers)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for p := 0; p < writers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := image(byte(p))
			for r := 0; r < rounds; r++ {
				next := edited(cur, (r*37)%PageSize, 1+r%9, byte(r))
				if err := w.AppendBatch([]PageImage{{ID: PageID(p), Image: next, Base: cur}}); err != nil {
					errs[p] = err
					return
				}
				cur = next
			}
			final[p] = cur
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if max := int64(writers*(walPageRecordSize+1) + writers*(rounds-1)*64); w.Size() > max {
		t.Fatalf("log of %d bytes, want at most %d: one image per page, patches after", w.Size(), max)
	}
	got := replayPages(t, w)
	for p := 0; p < writers; p++ {
		if !bytes.Equal(got[PageID(p)], final[p]) {
			t.Fatalf("page %d not rebuilt to its last version", p)
		}
	}
}

// FuzzWALPatch: for any base and any edit of it, a log holding the base's
// image and then the edit replays to the edit. A patch carries at most 12
// bytes per changed byte (a run is a header and at most 8 bytes per
// differing word), so an edit that small is never sent as an image.
func FuzzWALPatch(f *testing.F) {
	f.Add([]byte{1}, []byte{})                                   // no change
	f.Add([]byte{2}, []byte{0, 0, 0xff, 0xff, 7})                // the whole page
	f.Add([]byte{3}, []byte{0, 0, 0, 1, 9})                      // the first byte
	f.Add([]byte{4}, []byte{0x0f, 0xff, 0, 1, 9})                // the last byte
	f.Add([]byte{5}, []byte{0, 0, 0, 3, 1, 0x0f, 0xfd, 0, 3, 2}) // both edges
	f.Add([]byte{6, 7, 8}, []byte{0, 9, 0, 8, 0, 0, 17, 0, 7, 1, 4, 0, 0, 200, 3})
	f.Fuzz(func(t *testing.T, seed, edits []byte) {
		base := make([]byte, PageSize)
		for i := range base {
			if len(seed) > 0 {
				base[i] = seed[i%len(seed)] ^ byte(i>>3)
			}
		}
		// Each edit is offset u16, length u16, fill: clipped to the page.
		img := append([]byte(nil), base...)
		changed := 0
		for len(edits) >= 5 {
			off := int(binary.BigEndian.Uint16(edits)) % PageSize
			n := min(int(binary.BigEndian.Uint16(edits[2:])), PageSize-off)
			for i := off; i < off+n; i++ {
				img[i] = edits[4]
			}
			edits = edits[5:]
		}
		for i := range img {
			if img[i] != base[i] {
				changed++
			}
		}
		w := &WAL{}
		first, imaged, err := w.encodeBatch([]PageImage{{ID: 2, Image: base, Base: base}})
		if err != nil || len(imaged) != 1 {
			t.Fatalf("first batch: imaged %v, err %v", imaged, err)
		}
		w.mark(imaged)
		second, imaged, err := w.encodeBatch([]PageImage{{ID: 2, Image: img, Base: base}})
		if err != nil {
			t.Fatal(err)
		}
		if len(imaged) == 0 {
			if payload := len(second) - 1 - walPatchHeader; payload > 12*changed {
				t.Fatalf("patch carries %d bytes for %d changed", payload, changed)
			}
		} else if 12*changed <= walPatchMax {
			t.Fatalf("a change of %d bytes went as an image", changed)
		}
		log := append(append([]byte(nil), first...), second...)
		batches, err := WALBatches(log)
		if err != nil || len(batches) != 2 {
			t.Fatalf("WALBatches = %v, %v", batches, err)
		}
		pages, applied, err := readLog(bufio.NewReader(bytes.NewReader(log)), false, nil)
		if err != nil || applied != 2 {
			t.Fatalf("replay: %d batches, %v", applied, err)
		}
		if !bytes.Equal(pages[2], img) {
			t.Fatalf("replayed page differs from the image (%d bytes changed)", changed)
		}
	})
}
