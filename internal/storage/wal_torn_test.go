package storage

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/fault"
)

// tornWAL writes nbatches committed batches (batch i carries i+1 page
// images, fill byte i+1) and returns the wal path plus the boundaries:
// ends[i] is the byte length of the log after batch i committed.
func tornWAL(t *testing.T, nbatches int) (path string, ends []int64) {
	t.Helper()
	w, path := tempWAL(t)
	for i := 0; i < nbatches; i++ {
		var batch []PageImage
		for j := 0; j <= i; j++ {
			batch = append(batch, PageImage{ID: PageID(j), Image: image(byte(i + 1))})
		}
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ends
}

// replayCount reopens the log and replays, returning the applied batch
// count and the number of pages delivered.
func replayCount(t *testing.T, path string) (batches, images int) {
	t.Helper()
	w, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	n, err := w.Replay(func(PageImage) error { images++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	return n, images
}

// TestWALTornTailMatrix is the fast, table-driven form of the torture
// harness's fixed crash cases: for each way a commit can tear — crash
// mid-record, mid-batch, mid-commit-marker — and for a bit-flipped CRC,
// Replay must apply exactly the committed prefix and drop the tail
// without error. Batch i images pages 0..i, so a prefix of k batches
// delivers k pages, each as batch k left it.
func TestWALTornTailMatrix(t *testing.T) {
	// 3 batches: ends[0], ends[1], ends[2]; batch 3 totals 3 page records
	// plus the commit byte.
	const nbatches = 3
	cases := []struct {
		name string
		// mutate receives the full log and the batch boundaries and
		// returns the bytes recovery will see.
		mutate      func(data []byte, ends []int64) []byte
		wantBatches int
	}{
		{
			name: "crash mid-record: torn inside the third batch's first page payload",
			mutate: func(data []byte, ends []int64) []byte {
				return data[:ends[1]+walPageRecordSize/2]
			},
			wantBatches: 2,
		},
		{
			name: "crash mid-batch: third batch torn between its records",
			mutate: func(data []byte, ends []int64) []byte {
				return data[:ends[1]+2*walPageRecordSize]
			},
			wantBatches: 2,
		},
		{
			name: "crash mid-commit: all records of the third batch present, commit byte missing",
			mutate: func(data []byte, ends []int64) []byte {
				return data[:ends[2]-1]
			},
			wantBatches: 2,
		},
		{
			name: "crash mid-header: second batch torn inside a record header",
			mutate: func(data []byte, ends []int64) []byte {
				return data[:ends[0]+5]
			},
			wantBatches: 1,
		},
		{
			name: "bit-flipped CRC: third batch's stored checksum corrupted",
			mutate: func(data []byte, ends []int64) []byte {
				out := append([]byte(nil), data...)
				out[ends[1]+5] ^= 0x40 // byte 5 of the record = first CRC byte
				return out
			},
			wantBatches: 2,
		},
		{
			name: "bit-flipped payload: third batch's image corrupted under an intact header",
			mutate: func(data []byte, ends []int64) []byte {
				out := append([]byte(nil), data...)
				out[ends[1]+9+100] ^= 0x01
				return out
			},
			wantBatches: 2,
		},
		{
			name: "garbage record kind after a committed prefix",
			mutate: func(data []byte, ends []int64) []byte {
				out := append([]byte(nil), data[:ends[1]]...)
				return append(out, 0xEE, 0xBB)
			},
			wantBatches: 2,
		},
		{
			name: "intact log: control",
			mutate: func(data []byte, ends []int64) []byte {
				return data
			},
			wantBatches: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, ends := tornWAL(t, nbatches)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(data, ends), 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := OpenWAL(path, false)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			pages := 0
			batches, err := w.Replay(func(im PageImage) error {
				if im.ID != PageID(pages) || im.Image[0] != byte(tc.wantBatches) {
					t.Errorf("page %d (fill %d) delivered as page %d of a %d-batch prefix", im.ID, im.Image[0], pages, tc.wantBatches)
				}
				pages++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if batches != tc.wantBatches || pages != tc.wantBatches {
				t.Fatalf("replay = %d batches / %d pages, want %d / %d",
					batches, pages, tc.wantBatches, tc.wantBatches)
			}
		})
	}
}

// TestWALBatches: on a real log the batch boundaries WALBatches parses
// are the ones the appends left, as many as Replay applies; a log that is
// not whole — a garbage kind byte, a trailing partial record, a corrupt
// record, a batch without its commit marker — is an error, not a shorter
// answer.
func TestWALBatches(t *testing.T) {
	path, ends := tornWAL(t, 4)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := WALBatches(log)
	if err != nil {
		t.Fatal(err)
	}
	if applied, _ := replayCount(t, path); len(batches) != applied {
		t.Fatalf("%d batches parsed, Replay applied %d", len(batches), applied)
	}
	for i, recs := range batches {
		if recs[len(recs)-1] != ends[i] || len(recs) != i+2 {
			t.Fatalf("batch %d = %v, want %d page records then a commit ending at %d", i, recs, i+1, ends[i])
		}
	}

	corrupt := append([]byte(nil), log...)
	corrupt[100] ^= 0xFF
	for name, bad := range map[string][]byte{
		"garbage kind byte":       append(append([]byte(nil), log...), 7),
		"trailing partial record": append(append([]byte(nil), log...), log[:100]...),
		"corrupt record":          corrupt,
		"uncommitted batch":       log[:len(log)-1],
	} {
		if got, err := WALBatches(bad); err == nil {
			t.Errorf("%s: parsed %d batches, want an error", name, len(got))
		}
	}
}

// TestWALFaultTornAppendRecoversPrefix drives the wal.append failpoint:
// a torn append leaves garbage past the logical end, the writer sees an
// ErrIO-classified error, and recovery on the resulting file still
// yields exactly the committed prefix.
func TestWALFaultTornAppendRecoversPrefix(t *testing.T) {
	for _, tornAt := range []int{0, 1, 9, walPageRecordSize / 2, walPageRecordSize} {
		t.Run(fmt.Sprintf("torn at %d", tornAt), func(t *testing.T) {
			w, path := tempWAL(t)
			if err := w.AppendBatch([]PageImage{{ID: 1, Image: image(1)}}); err != nil {
				t.Fatal(err)
			}
			fault.Enable(fault.NewRegistry(1).Add(fault.Rule{
				Site: fault.WALAppend, Kind: fault.Torn, TornBytes: tornAt, Count: 1,
			}))
			defer fault.Disable()
			err := w.AppendBatch([]PageImage{{ID: 2, Image: image(2)}})
			if !errors.Is(err, ErrIO) {
				t.Fatalf("torn append error = %v, want ErrIO", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// The file now has tornAt bytes of garbage past the end.
			if st, _ := os.Stat(path); tornAt > 0 && st.Size() <= int64(walPageRecordSize+1) {
				t.Fatalf("torn bytes never reached the file (size %d)", st.Size())
			}
			batches, images := replayCount(t, path)
			if batches != 1 || images != 1 {
				t.Fatalf("recovered %d batches / %d images, want 1 / 1", batches, images)
			}
		})
	}
}

// TestPagerFaultErrorsAreErrIO: injected pager faults classify as ErrIO,
// and a read fault surfaces through the pool's loading-frame unwind so a
// later fetch retries cleanly.
func TestPagerFaultErrorsAreErrIO(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPager(dir + "/t.pg")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	id, err := p.Allocate(nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(p, 8)
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(fault.NewRegistry(1).
		Add(fault.Rule{Site: fault.PoolLoad, Kind: fault.Error, Count: 1}).
		Add(fault.Rule{Site: fault.PagerSync, Kind: fault.Error, Count: 1}))
	defer fault.Disable()

	if _, err := pool.Fetch(id); !errors.Is(err, ErrIO) {
		t.Fatalf("faulted fetch error = %v, want ErrIO", err)
	}
	if pool.Resident() != 0 {
		t.Fatalf("stillborn frame left resident (%d)", pool.Resident())
	}
	if err := p.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("faulted sync error = %v, want ErrIO", err)
	}
	// Faults exhausted: the same operations now succeed.
	if _, err := pool.Fetch(id); err != nil {
		t.Fatalf("fetch after fault: %v", err)
	}
	if err := pool.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatalf("sync after fault: %v", err)
	}
	// Request errors — not disk failures — must NOT classify as ErrIO.
	if err := pool.Unpin(999); errors.Is(err, ErrIO) {
		t.Fatal("bad-request error classified as ErrIO")
	}
}
