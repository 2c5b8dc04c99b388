package engine

import (
	"fmt"
	"strings"
	"testing"
)

// loadWideTable fills t with rows padded wide enough that the heap spans
// well past minParallelScanPages pages, so the parallel executor engages.
func loadWideTable(t *testing.T, db *Database, rows int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE wide (id INT PRIMARY KEY, grp INT, pad TEXT)`)
	pad := strings.Repeat("x", 100)
	var stmt strings.Builder
	for i := 0; i < rows; i++ {
		if stmt.Len() == 0 {
			stmt.WriteString(`INSERT INTO wide VALUES `)
		} else {
			stmt.WriteString(", ")
		}
		fmt.Fprintf(&stmt, `(%d, %d, '%s-%d')`, i, i%7, pad, i)
		if (i+1)%100 == 0 || i == rows-1 {
			mustExec(t, db, stmt.String())
			stmt.Reset()
		}
	}
}

func TestParallelScanEngages(t *testing.T) {
	db := testDB(t, WithScanWorkers(4))
	loadWideTable(t, db, 2000)
	tbl, err := db.getTable("wide")
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.heap.NumPages(); n < minParallelScanPages {
		t.Fatalf("heap only %d pages; test table too small to exercise the executor", n)
	}
	if w := db.scanWorkersFor(tbl); w != 4 {
		t.Fatalf("scanWorkersFor = %d, want 4", w)
	}
}

// TestParallelScanMatchesSequential runs the same statements through a
// parallel and a sequential engine over identical data: rows, order, and
// keys must be indistinguishable.
func TestParallelScanMatchesSequential(t *testing.T) {
	par := testDB(t, WithScanWorkers(8))
	seq := testDB(t, WithScanWorkers(1))
	loadWideTable(t, par, 1500)
	loadWideTable(t, seq, 1500)

	queries := []string{
		`SELECT * FROM wide`,
		`SELECT id FROM wide WHERE grp = 3`,
		`SELECT id FROM wide WHERE grp = 3 LIMIT 17`,
		`SELECT id, grp FROM wide WHERE grp >= 5 ORDER BY id DESC LIMIT 40`,
		`SELECT COUNT(*), SUM(id), AVG(id), MIN(id), MAX(id) FROM wide WHERE grp != 2`,
		`SELECT COUNT(*) FROM wide WHERE grp = 99`,
	}
	for _, q := range queries {
		pr := mustExec(t, par, q)
		sr := mustExec(t, seq, q)
		if len(pr.Rows) != len(sr.Rows) {
			t.Fatalf("%s: %d rows parallel vs %d sequential", q, len(pr.Rows), len(sr.Rows))
		}
		for i := range pr.Rows {
			if fmt.Sprint(pr.Rows[i]) != fmt.Sprint(sr.Rows[i]) {
				t.Fatalf("%s: row %d differs: %v vs %v", q, i, pr.Rows[i], sr.Rows[i])
			}
		}
		if fmt.Sprint(pr.Keys) != fmt.Sprint(sr.Keys) {
			t.Fatalf("%s: keys differ", q)
		}
	}
}

// TestParallelScanLimitCancels: a tight LIMIT over a big heap must not
// scan every page — early-cancel reaches the workers. How far they ran
// ahead is bounded by the claim window, not by the scheduler: the first
// chunk satisfies the LIMIT, so at most scanWindow chunks were ever
// claimed (the workers term covers a reducer that moves past a chunk
// before it stops). Run it under -cpu 1,2,4: the bound is the same.
func TestParallelScanLimitCancels(t *testing.T) {
	const workers = 4
	db := testDB(t, WithScanWorkers(workers))
	loadWideTable(t, db, 8000)
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	h0, m0, _ := db.PoolStats()
	res := mustExec(t, db, `SELECT id FROM wide LIMIT 5`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	h1, m1, _ := db.PoolStats()
	tbl, _ := db.getTable("wide")
	touched := (h1 - h0) + (m1 - m0)
	if total := int64(tbl.heap.NumPages()); touched > total/2 {
		t.Fatalf("LIMIT 5 touched %d of %d pages; early-cancel not propagating", touched, total)
	}
	if bound := int64((scanWindow(workers) + workers) * scanChunkPages); touched > bound {
		t.Fatalf("LIMIT 5 touched %d pages; the claim window allows %d", touched, bound)
	}
}

// TestParallelScanPropagatesErrors: a mid-scan evaluation error (TEXT
// column compared to an INT literal) must surface, not hang or panic.
func TestParallelScanPropagatesErrors(t *testing.T) {
	db := testDB(t, WithScanWorkers(4))
	loadWideTable(t, db, 1200)
	if _, err := db.Exec(`SELECT id FROM wide WHERE pad > 5`); err == nil {
		t.Fatal("TEXT-vs-INT comparison succeeded")
	}
	if got := db.PinnedFrames(); got != 0 {
		t.Fatalf("pinned frames after failed scan = %d", got)
	}
}

// TestScanWorkersForSmallHeap: tiny heaps stay sequential regardless of
// the configured ceiling.
func TestScanWorkersForSmallHeap(t *testing.T) {
	db := testDB(t, WithScanWorkers(8))
	mustExec(t, db, `CREATE TABLE small (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO small VALUES (1), (2), (3)`)
	tbl, err := db.getTable("small")
	if err != nil {
		t.Fatal(err)
	}
	if w := db.scanWorkersFor(tbl); w != 1 {
		t.Fatalf("scanWorkersFor(small) = %d, want 1", w)
	}
}

// TestParallelScanUnderWriters exercises the reader/writer model with
// the executor on: concurrent full scans and point updates must agree
// with a final consistency check.
func TestParallelScanUnderWriters(t *testing.T) {
	db := testDB(t, WithScanWorkers(4))
	loadWideTable(t, db, 1000)
	markConcurrent(t, db)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := db.Exec(fmt.Sprintf(`UPDATE wide SET grp = %d WHERE id = %d`, i%7, i%1000)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		res := mustExec(t, db, `SELECT COUNT(*) FROM wide`)
		if res.Rows[0][0].Int != 1000 {
			t.Fatalf("count = %v", res.Rows[0][0])
		}
	}
	<-done
}
