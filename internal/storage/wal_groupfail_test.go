package storage

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestWALFailedGroupFlushNotDurable pins the rejected-batch rollback:
// when a group flush fails after the write but before its durability
// point (the wal.groupflush failpoint, standing in for a dying fsync),
// every member is told its commit failed — so the batch's bytes must
// not stay in the file where the next successful commit's fsync would
// make them a durable committed prefix and recovery would resurrect
// statements that were reported failed.
func TestWALFailedGroupFlushNotDurable(t *testing.T) {
	w, path := tempWAL(t)
	w.window = time.Millisecond

	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{
		Site: fault.WALGroupFlush, Kind: fault.Error, Count: 1,
	}))
	defer fault.Disable()
	err := w.AppendBatch([]PageImage{{ID: 1, Image: image(0xEE)}})
	if err == nil {
		t.Fatal("injected group-flush fault did not fail the commit")
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("fault not classified ErrIO: %v", err)
	}
	fault.Disable()

	// The rejected batch rolled off the file entirely.
	if w.Size() != 0 {
		t.Fatalf("logical size %d after rejected batch, want 0", w.Size())
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != 0 {
		t.Fatalf("file size %d after rejected batch, want 0", st.Size())
	}

	// A later successful commit must not drag the rejected one along.
	if err := w.AppendBatch([]PageImage{{ID: 2, Image: image(0x22)}}); err != nil {
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
	if applied != 1 || len(got) != 1 || got[0].ID != 2 || got[0].Image[0] != 0x22 {
		t.Fatalf("replay = %d batches %d images (want only the successful commit)", applied, len(got))
	}
	// Pipeline counters count committed batches only.
	if commits, records, _, _ := w.GroupStats(); commits != 1 || records != 1 {
		t.Fatalf("GroupStats commits=%d records=%d after one rejected and one committed batch", commits, records)
	}
}

// TestWALDropAllVersionAccounting pins the engine_snapshot_versions_live
// gauge against DropAll: dropping a frame whose chain still held a
// retained version must move that version from live to retired rather
// than leak it in the gauge forever.
func TestWALDropAllVersionAccounting(t *testing.T) {
	pool := tempPool(t, 16)
	id := newPage(t, pool, []byte("v0"))

	// Publish a new version while a snapshot is registered, so the old
	// one is retained on the frame's chain.
	snap := pool.BeginSnapshot()
	ws := NewWriteSet(pool)
	if _, ok, err := ws.Acquire(id); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	ws.MarkDirty(id)
	ws.Publish()
	ws.Release()
	if _, _, live, _ := pool.WriteStats(); live != 1 {
		t.Fatalf("versions live = %d after publish under a snapshot, want 1", live)
	}
	pool.EndSnapshot(snap)

	// DropAll discards the frame, chain and all; the gauge must follow.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, live, retired := pool.WriteStats(); live != 0 || retired != 1 {
		t.Fatalf("versions live=%d retired=%d after DropAll, want 0/1", live, retired)
	}
}
