package storage

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/fault"
)

// rewritePage commits rec as slot 0 of page id through a write set and
// returns the epoch it was published at.
func rewritePage(t *testing.T, pool *Pool, id PageID, rec string) uint64 {
	t.Helper()
	ws := NewWriteSet(pool)
	defer ws.Release()
	pg, ok, err := ws.Acquire(id)
	if err != nil || !ok {
		t.Fatalf("acquire %d: ok=%v err=%v", id, ok, err)
	}
	if err := pg.Update(0, []byte(rec)); err != nil {
		t.Fatal(err)
	}
	ws.MarkDirty(id)
	ws.Publish()
	return pool.Epoch()
}

// batchRecords reads slot 0 of every page rids name through ReadBatch
// at snap, a copy per row, "" for a row whose page is not visible.
func batchRecords(t *testing.T, pool *Pool, pb *PageBatch, rids []RID, snap uint64) []string {
	t.Helper()
	var out []string
	for len(rids) > 0 {
		n, err := pool.ReadBatch(pb, rids, snap)
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 {
			t.Fatalf("ReadBatch covered %d of %d rids", n, len(rids))
		}
		for _, rid := range rids[:n] {
			pg, vis := pb.At(rid.Page)
			if !vis {
				out = append(out, "")
				continue
			}
			rec, err := pg.Record(int(rid.Slot))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(rec))
		}
		rids = rids[n:]
	}
	return out
}

// resident lists which of ids have a frame.
func resident(pool *Pool, ids []PageID) []bool {
	out := make([]bool, len(ids))
	for i, id := range ids {
		sh := pool.shard(id)
		sh.mu.Lock()
		out[i] = sh.lookup(id) != nil
		sh.mu.Unlock()
	}
	return out
}

// TestReadBatchAnswersAsFetchAt: whether a page is resident, cold, or
// cold and republished since the snapshot, ReadBatch returns what FetchAt
// returns at the same snapshot; it leaves residency alone, evicts
// nothing, reads each cold page once, counts one row read per At (a cold
// page's first as the miss) by the time the batch is cleared, and
// revisits a page across batches.
func TestReadBatchAnswersAsFetchAt(t *testing.T) {
	const pages = 80
	pool := tempPool(t, 8) // one shard
	var ids []PageID
	for i := 0; i < pages; i++ {
		ids = append(ids, newPage(t, pool, []byte(fmt.Sprintf("p%d-v0", i))))
	}
	for i := 0; i < pages; i += 3 {
		rewritePage(t, pool, ids[i], fmt.Sprintf("p%d-v1", i))
	}
	snap := pool.BeginSnapshot()
	// Born after the snapshot, then evicted: its persisted version is
	// newer than snap, so the snapshot must not see it.
	late := newPage(t, pool, []byte("late"))
	// Rewritten after the snapshot while resident: the chain keeps v1
	// for snap, and the frame stays resident.
	rewritePage(t, pool, ids[3], "p3-v2")
	// Cycle the pool so the late page is evicted; ids[3]'s chain keeps it.
	for _, id := range ids[40:60] {
		if _, _, err := pool.FetchAt(id, snap); err != nil {
			t.Fatal(err)
		}
	}
	if r := resident(pool, []PageID{late, ids[3]}); r[0] || !r[1] {
		t.Fatalf("late resident %v, ids[3] resident %v", r[0], r[1])
	}

	// Two rows per page, a page revisited after 40 others (so in a later
	// batch), and the late page.
	var rids []RID
	for i := 0; i < pages; i++ {
		rids = append(rids, RID{Page: ids[i]}, RID{Page: ids[i]})
		if i == 45 {
			rids = append(rids, RID{Page: ids[2]}, RID{Page: late})
		}
	}
	all := append(append([]PageID(nil), ids...), late)
	before := resident(pool, all)
	h0, m0, e0 := pool.Stats()
	s0 := pool.Streamed()
	reads0, _ := pool.pager.Stats()

	var pb PageBatch
	got := batchRecords(t, pool, &pb, rids, snap)
	// The counters receive a batch's row reads when it is refilled or
	// cleared: they are read after the Clear, as a statement's are.
	pb.Clear()

	after := resident(pool, all)
	h1, m1, e1 := pool.Stats()
	streamed := pool.Streamed() - s0
	reads1, _ := pool.pager.Stats()

	// FetchAt at the same snapshot is the reference. It loads pages, so
	// it runs after the counters are read.
	for i, rid := range rids {
		pg, vis, err := pool.FetchAt(rid.Page, snap)
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		if vis {
			rec, _ := pg.Record(0)
			want = string(rec)
		}
		if got[i] != want {
			t.Fatalf("row %d (page %d): ReadBatch %q, FetchAt %q", i, rid.Page, got[i], want)
		}
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("ReadBatch changed residency:\n before %v\n after  %v", before, after)
	}
	if e1 != e0 {
		t.Fatalf("ReadBatch evicted %d frames", e1-e0)
	}
	if reads1-reads0 != streamed {
		t.Fatalf("pager read %d pages, streamed counter moved %d", reads1-reads0, streamed)
	}
	// Every cold page once, ids[2] twice (two batches read it), and the
	// late page never: it is invisible.
	var want int64
	for i, r := range before {
		if !r && all[i] != late {
			want++
		}
	}
	if !before[2] {
		want++
	}
	if streamed != want || want < pages/2 {
		t.Fatalf("streamed %d pages, want %d", streamed, want)
	}
	if rows := int64(len(rids)); (h1-h0)+(m1-m0) != rows {
		t.Fatalf("hits %d + misses %d, want one per row read (%d)", h1-h0, m1-m0, rows)
	}
	if got[len(got)-1] != "p79-v0" || got[7] != "p3-v1" {
		t.Fatalf("unexpected reference rows %q, %q", got[7], got[len(got)-1])
	}
	pool.EndSnapshot(snap)
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("Pinned = %d", n)
	}
}

// TestReadAtAnswersAsFetchAt: page by page, ReadAt returns what FetchAt
// returns at the same snapshot, for a resident page, a cold one, a cold
// one republished since the snapshot and one born after it. It leaves
// residency alone, evicts nothing, reads the cold pages into the one
// buffer it makes, and counts one hit or miss per page.
func TestReadAtAnswersAsFetchAt(t *testing.T) {
	const pages = 40
	pool := tempPool(t, 8) // one shard
	var ids []PageID
	for i := 0; i < pages; i++ {
		ids = append(ids, newPage(t, pool, []byte(fmt.Sprintf("p%d-v0", i))))
	}
	for i := 0; i < pages; i += 3 {
		rewritePage(t, pool, ids[i], fmt.Sprintf("p%d-v1", i))
	}
	snap := pool.BeginSnapshot()
	defer pool.EndSnapshot(snap)
	late := newPage(t, pool, []byte("late"))
	rewritePage(t, pool, ids[pages-1], "v2")
	all := append(append([]PageID(nil), ids...), late)
	before := resident(pool, all)
	h0, m0, e0 := pool.Stats()

	var buf *Page
	got := make([]string, len(all))
	for i, id := range all {
		pg, vis, err := pool.ReadAt(id, snap, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if vis {
			rec, _ := pg.Record(0)
			got[i] = string(rec)
		}
	}
	h1, m1, e1 := pool.Stats()
	if after := resident(pool, all); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("ReadAt changed residency:\n before %v\n after  %v", before, after)
	}
	if e1 != e0 {
		t.Fatalf("ReadAt evicted %d frames", e1-e0)
	}
	if (h1-h0)+(m1-m0) != int64(len(all)) {
		t.Fatalf("hits %d + misses %d, want one per page (%d)", h1-h0, m1-m0, len(all))
	}
	cold := 0
	for _, r := range before {
		if !r {
			cold++
		}
	}
	if m1-m0 != int64(cold) || cold < pages/2 || buf == nil {
		t.Fatalf("%d misses for %d cold pages (buffer made: %v)", m1-m0, cold, buf != nil)
	}
	for i, id := range all {
		pg, vis, err := pool.FetchAt(id, snap)
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		if vis {
			rec, _ := pg.Record(0)
			want = string(rec)
		}
		if got[i] != want {
			t.Fatalf("page %d: ReadAt %q, FetchAt %q", id, got[i], want)
		}
	}
}

// TestReadBatchSnapshotSurvivesWriter is the interleaving the streamed
// read must survive: the batch has found a page cold (its persisted
// version visible at the snapshot) and is about to read it when a
// writer loads the page, republishes it, and the sweep tries to evict
// it. The snapshot's registration keeps the displaced version on the
// frame's chain, so the sweep spares the frame and the file still holds
// the snapshot's bytes. The writer runs from the loading failpoint,
// which fires between the residency check and the read.
func TestReadBatchSnapshotSurvivesWriter(t *testing.T) {
	const capacity = 8
	pool := tempPool(t, capacity) // one shard
	var ids []PageID
	for i := 0; i < 4*capacity; i++ {
		ids = append(ids, newPage(t, pool, []byte(fmt.Sprintf("p%d-v0", i))))
	}
	target := ids[1]
	rewritePage(t, pool, target, "p1-v1") // persisted at a nonzero epoch
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	snap := pool.BeginSnapshot()
	defer pool.EndSnapshot(snap)

	fired := false
	fault.SetCrashHandler(func(fault.Site) {
		fired = true
		rewritePage(t, pool, target, "p1-v2")
		// Cycle the pool twice over: every other frame is a victim.
		for _, id := range ids[capacity:] {
			if _, _, err := pool.FetchAt(id, pool.Epoch()); err != nil {
				t.Fatal(err)
			}
		}
	})
	defer fault.SetCrashHandler(nil)
	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{Site: fault.PoolLoad, Kind: fault.Crash, Count: 1}))
	defer fault.Disable()

	var pb PageBatch
	got := batchRecords(t, pool, &pb, []RID{{Page: ids[0]}, {Page: target}, {Page: ids[2]}}, snap)
	if !fired {
		t.Fatal("the writer never ran: nothing was read around the pool")
	}
	if want := []string{"p0-v0", "p1-v1", "p2-v0"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows %q, want the snapshot's %q", got, want)
	}
	if !resident(pool, []PageID{target})[0] {
		t.Fatal("the sweep evicted a frame whose chain feeds a registered snapshot")
	}
	if pg, vis, err := pool.FetchAt(target, pool.Epoch()); err != nil || !vis {
		t.Fatalf("current version: vis=%v err=%v", vis, err)
	} else if rec, _ := pg.Record(0); string(rec) != "p1-v2" {
		t.Fatalf("current version %q", rec)
	}
}

// TestReadBatchFaultLeavesPoolAlone: a loading or pager-read failure
// inside a batch, on its first cold page or a later run, returns the
// error as ErrIO, leaves no pin, and changes no residency.
func TestReadBatchFaultLeavesPoolAlone(t *testing.T) {
	for _, c := range []struct {
		site  fault.Site
		after uint64
	}{
		{fault.PoolLoad, 0}, {fault.PoolLoad, 3}, {fault.PagerRead, 0}, {fault.PagerRead, 5},
	} {
		t.Run(fmt.Sprintf("%s/after=%d", c.site, c.after), func(t *testing.T) {
			pool := tempPool(t, 8)
			var ids []PageID
			for i := 0; i < 24; i++ {
				ids = append(ids, newPage(t, pool, []byte(fmt.Sprintf("p%d", i))))
			}
			// Resident pages among cold ones: the batch resolves both.
			var rids []RID
			for i := 0; i < len(ids); i += 2 {
				rids = append(rids, RID{Page: ids[i]})
			}
			for i := len(ids) - 6; i < len(ids); i++ {
				rids = append(rids, RID{Page: ids[i]})
			}
			snap := pool.BeginSnapshot()
			defer pool.EndSnapshot(snap)
			before := resident(pool, ids)
			fault.Enable(fault.NewRegistry(1).Add(fault.Rule{Site: c.site, Kind: fault.Error, After: c.after, Count: 1}))
			defer fault.Disable()
			var pb PageBatch
			_, err := pool.ReadBatch(&pb, rids, snap)
			if !errors.Is(err, ErrIO) {
				t.Fatalf("err = %v, want ErrIO", err)
			}
			if n := pool.Pinned(); n != 0 {
				t.Fatalf("Pinned = %d after a failed batch", n)
			}
			if after := resident(pool, ids); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("residency changed:\n before %v\n after  %v", before, after)
			}
			fault.Disable()
			if got := batchRecords(t, pool, &pb, rids, snap); got[0] != "p0" || got[len(got)-1] != "p23" {
				t.Fatalf("retry read %q", got)
			}
		})
	}
}

// TestGoneEpochsAreDense: the eviction epochs live in a slice indexed by
// id within the shard, and a reload is stamped from it. The slice keeps
// the shard at two cache lines.
func TestGoneEpochsAreDense(t *testing.T) {
	pool, err := NewPoolShards(tempPager(t), 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 40; i++ {
		ids = append(ids, newPage(t, pool, []byte("x")))
	}
	e := rewritePage(t, pool, ids[37], "y")
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	sh := pool.shard(ids[37])
	if got := pool.goneAt(sh, ids[37]); got != e {
		t.Fatalf("gone epoch of page %d = %d, want %d", ids[37], got, e)
	}
	if n := len(sh.gone); n > 40/4 {
		t.Fatalf("shard's gone slice holds %d entries for 10 pages", n)
	}
	if _, vis, err := pool.FetchAt(ids[37], e-1); err != nil || vis {
		t.Fatalf("reloaded page visible before its epoch: vis=%v err=%v", vis, err)
	}
	if sz := unsafe.Sizeof(poolShard{}); unsafe.Sizeof(uintptr(0)) == 8 && sz != 128 {
		t.Fatalf("poolShard is %d bytes, want two 64-byte lines", sz)
	}
}
