package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// The narrow range and secondary-equality paths read the heap pages the
// pool does not hold around it (storage.Pool.ReadBatch). These tests
// hold them to the rows the pool path reads at the same snapshot.

// loadPadded creates s(id INT PRIMARY KEY, grp INT, v TEXT) with an
// index on grp and inserts ids in the order given, about a dozen rows a
// page: the insert order decides which page a key lands on.
func loadPadded(t *testing.T, db *Database, ids []int, grp func(id int) int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE s (id INT PRIMARY KEY, grp INT, v TEXT)`)
	mustExec(t, db, `CREATE INDEX s_grp ON s (grp)`)
	for _, id := range ids {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO s VALUES (%d, %d, 'v%d-%s')`, id, grp(id), id, strings.Repeat("x", 300)))
	}
}

// poolRows reads rids the way the pool path does, one FetchAt per row at
// a registered snapshot: the rows and keys the parent engine returned.
func poolRows(t *testing.T, db *Database, rids func(tb *table) []storage.RID) ([]string, []uint64) {
	t.Helper()
	tb, err := db.getTable("s")
	if err != nil {
		t.Fatal(err)
	}
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	tb.idxMu.RLock()
	snap := tb.pool.BeginSnapshot()
	list := rids(tb)
	tb.idxMu.RUnlock()
	defer tb.pool.EndSnapshot(snap)
	var rows []string
	var keys []uint64
	for _, rid := range list {
		pg, vis, err := tb.pool.FetchAt(rid.Page, snap)
		if err != nil {
			t.Fatal(err)
		}
		if !vis {
			continue
		}
		rec, err := pg.Record(int(rid.Slot))
		if err != nil {
			t.Fatal(err)
		}
		row, err := catalog.DecodeRow(tb.schema, rec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, fmt.Sprint(row[0].Int, row[1].Int, row[2].Str))
		keys = append(keys, uint64(row[0].Int))
	}
	return rows, keys
}

// resultRows renders a SELECT id, grp, v result as poolRows does.
func resultRows(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		out = append(out, fmt.Sprint(row[0].Int, row[1].Int, row[2].Str))
	}
	return out
}

// TestStreamedRangeRevisitsPages: keys inserted evens first, then odds,
// put consecutive keys on pages far apart, so a range goes back and forth
// between pages and across batches. Cold, warm and half warm, the
// range and the secondary lookup return the rows and Keys the pool path
// returns, count one pool hit or miss per row read, and read cold pages
// around the pool.
func TestStreamedRangeRevisitsPages(t *testing.T) {
	db := testDB(t, WithPoolPages(16))
	var ids []int
	for i := 0; i < 1200; i += 2 {
		ids = append(ids, i)
	}
	for i := 1; i < 1200; i += 2 {
		ids = append(ids, i)
	}
	loadPadded(t, db, ids, func(id int) int { return id % 7 })
	tb, _ := db.getTable("s")
	if n := tb.heap.NumPages(); n < 80 {
		t.Fatalf("table has %d pages; the test wants more than twice a batch", n)
	}
	rng := func(tb *table) []storage.RID {
		var out []storage.RID
		lo, hi := int64(100), int64(899)
		tb.pk.AscendRange(&lo, &hi, func(_ int64, rid storage.RID) bool {
			out = append(out, rid)
			return true
		})
		return out
	}
	sec := func(tb *table) []storage.RID {
		rids, _ := tb.secondaries[0].lookupLiteral(sqlmini.Literal{Kind: sqlmini.IntLit, Int: 3})
		return rids
	}
	for _, warm := range []string{"cold", "warm", "half"} {
		for _, c := range []struct {
			sql  string
			rids func(tb *table) []storage.RID
		}{
			{`SELECT id, grp, v FROM s WHERE id BETWEEN 100 AND 899`, rng},
			{`SELECT id, grp, v FROM s WHERE grp = 3`, sec},
		} {
			if err := db.DropCaches(); err != nil {
				t.Fatal(err)
			}
			switch warm {
			case "warm":
				mustExec(t, db, `SELECT id, grp, v FROM s WHERE id >= 500`) // wide: through the pool
			case "half":
				for id := 100; id < 900; id += 37 {
					mustExec(t, db, fmt.Sprintf(`SELECT v FROM s WHERE id = %d`, id))
				}
			}
			h0, m0, _ := db.PoolStats()
			s0 := db.PoolStreamed()
			res := mustExec(t, db, c.sql)
			h1, m1, _ := db.PoolStats()
			wantRows, wantKeys := poolRows(t, db, c.rids)
			if len(wantRows) < 100 {
				t.Fatalf("%s: reference read %d rows", c.sql, len(wantRows))
			}
			if got := resultRows(res); fmt.Sprint(got) != fmt.Sprint(wantRows) {
				t.Fatalf("%s (%s): rows differ from the pool path:\n got  %v\n want %v", c.sql, warm, got, wantRows)
			}
			if fmt.Sprint(res.Keys) != fmt.Sprint(wantKeys) {
				t.Fatalf("%s (%s): Keys %v, want %v", c.sql, warm, res.Keys, wantKeys)
			}
			if reads := (h1 - h0) + (m1 - m0); reads != int64(len(wantRows)) {
				t.Fatalf("%s (%s): %d pool hits+misses for %d rows read", c.sql, warm, reads, len(wantRows))
			}
			if warm == "cold" && db.PoolStreamed() == s0 {
				t.Fatalf("%s: a cold read streamed no page", c.sql)
			}
		}
	}
}

// TestStreamedRangeReadsItsSnapshot is the interleaving a streamed read
// must survive, made deterministic: the range has found its pages cold
// and is about to read them when UPDATEs load four of them, republish
// them, and point reads cycle the pool so the sweep tries to evict them.
// The UPDATEs run from the loading failpoint, which fires between the
// batch's residency check and its read. The range must return the rows
// of its snapshot. The snapshot's registration is what makes it so: it
// keeps each displaced version on its frame's chain, and the sweep
// spares a frame whose chain feeds a registered snapshot, so the file
// still holds the bytes the batch was about to read. Read at an
// unregistered epoch, the sweep writes the new versions back first and
// the range returns them.
func TestStreamedRangeReadsItsSnapshot(t *testing.T) {
	db := testDB(t, WithPoolPages(16))
	var ids []int
	for i := 0; i < 800; i++ {
		ids = append(ids, i)
	}
	loadPadded(t, db, ids, func(int) int { return 0 })
	const sel = `SELECT id, grp, v FROM s WHERE id BETWEEN 0 AND 299`
	want := resultRows(mustExec(t, db, sel))
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}

	fired := false
	fault.SetCrashHandler(func(fault.Site) {
		fired = true
		for _, id := range []int{45, 85, 125, 165} {
			if _, err := db.Exec(fmt.Sprintf(`UPDATE s SET v = 'new' WHERE id = %d`, id)); err != nil {
				t.Errorf("update %d: %v", id, err)
			}
		}
		for id := 400; id < 800; id += 5 {
			if _, err := db.Exec(fmt.Sprintf(`SELECT v FROM s WHERE id = %d`, id)); err != nil {
				t.Errorf("point read %d: %v", id, err)
			}
		}
	})
	defer fault.SetCrashHandler(nil)
	// The first hit is the range's first row, loaded through the pool;
	// the second is the batch's first cold page.
	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{Site: fault.PoolLoad, Kind: fault.Crash, After: 1, Count: 1}))
	defer fault.Disable()

	res := mustExec(t, db, sel)
	fault.Disable()
	if !fired {
		t.Fatal("the writer never ran: the range read no page around the pool")
	}
	if got := resultRows(res); fmt.Sprint(got) != fmt.Sprint(want) {
		for i := range got {
			if i < len(want) && got[i] != want[i] {
				t.Fatalf("row %d: %q, want the snapshot's %q", i, got[i], want[i])
			}
		}
		t.Fatalf("%d rows, want the snapshot's %d", len(got), len(want))
	}
	// The UPDATEs did commit: a fresh read sees them.
	if got := mustExec(t, db, `SELECT v FROM s WHERE id = 85`); got.Rows[0][0].Str != "new" {
		t.Fatalf("after the range: v = %q", got.Rows[0][0].Str)
	}
}

// TestStreamedReadsUnderWriters races multi-row UPDATEs (one group, over
// one or two pages, per statement) against narrow ranges and secondary
// lookups over a pool a third of the table, with point readers cycling
// it. Every group a reader sees must be whole and uniform. Must run
// clean under -race. A statement may fail with ErrPoolExhausted, and
// the parent engine fails this way too: a frame republished since the
// oldest registered snapshot cannot be evicted, and with writers running
// while a reader is descheduled, every frame of a 12-frame stripe can be
// such a frame (about 8 runs in 300). A failed statement changes nothing,
// so the check is on the statements that succeeded.
func TestStreamedReadsUnderWriters(t *testing.T) {
	const (
		groups = 96
		span   = 24
		iters  = 40
	)
	db := testDB(t, WithPoolPages(48))
	markConcurrent(t, db)
	mustExec(t, db, `CREATE TABLE g (id INT PRIMARY KEY, grp INT, v INT, pad TEXT)`)
	mustExec(t, db, `CREATE INDEX g_grp ON g (grp)`)
	pad := strings.Repeat("p", 200)
	for g := 0; g < groups; g++ {
		stmt := `INSERT INTO g VALUES `
		for i := 0; i < span; i++ {
			if i > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, %d, 0, '%s')", g*span+i, g, pad)
		}
		mustExec(t, db, stmt)
	}
	s0 := db.PoolStreamed()
	var checked atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var once sync.Once
	done := func() { once.Do(func() { close(stop) }) }
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done()
			for i := 1; i <= iters; i++ {
				q := fmt.Sprintf(`UPDATE g SET v = %d WHERE grp = %d`, w*1000+i, (w*7+i)%groups)
				if _, err := db.Exec(q); err != nil && !errors.Is(err, storage.ErrPoolExhausted) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := i % groups
				var q string
				switch r {
				case 0: // two whole groups by key range
					if g == groups-1 {
						g--
					}
					q = fmt.Sprintf(`SELECT grp, v FROM g WHERE id BETWEEN %d AND %d`, g*span, (g+2)*span-1)
				case 1: // one group by secondary lookup
					q = fmt.Sprintf(`SELECT grp, v FROM g WHERE grp = %d`, g)
				default: // point reads cycle the pool
					q = fmt.Sprintf(`SELECT v FROM g WHERE id = %d`, (i*37)%(groups*span))
				}
				res, err := db.Exec(q)
				if errors.Is(err, storage.ErrPoolExhausted) {
					continue
				}
				if err != nil {
					t.Errorf("reader %d: %s: %v", r, q, err)
					return
				}
				if r < 2 {
					checkUniform(t, res, span, q)
					checked.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	if db.PoolStreamed() == s0 || checked.Load() == 0 {
		t.Fatalf("%d reads checked, none went around the pool", checked.Load())
	}
}
