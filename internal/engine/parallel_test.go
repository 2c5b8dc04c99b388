package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// withScanWorkers sets the most goroutines a full-heap read fans out
// across, which Open otherwise takes from GOMAXPROCS.
func withScanWorkers(n int) Option {
	return func(db *Database) { db.scanWorkers = n }
}

// loadWideTable fills t with rows padded wide enough that the heap spans
// well past minParallelScanPages pages, so the parallel executor engages.
func loadWideTable(t *testing.T, db *Database, rows int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE wide (id INT PRIMARY KEY, grp INT, pad TEXT)`)
	var stmt strings.Builder
	for i, r := range wideModel(rows) {
		if stmt.Len() == 0 {
			stmt.WriteString(`INSERT INTO wide VALUES `)
		} else {
			stmt.WriteString(", ")
		}
		fmt.Fprintf(&stmt, `(%d, %d, '%s')`, r.id, r.grp, r.pad)
		if (i+1)%100 == 0 || i == rows-1 {
			mustExec(t, db, stmt.String())
			stmt.Reset()
		}
	}
}

func TestParallelScanEngages(t *testing.T) {
	db := testDB(t, withScanWorkers(4))
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

// wideRow is one row loadWideTable inserts.
type wideRow struct {
	id, grp int64
	pad     string
}

// wideModel is the rows loadWideTable(rows) inserts, in insert order,
// which is the heap's page order for that append-only load.
func wideModel(rows int) []wideRow {
	pad := strings.Repeat("x", 100)
	out := make([]wideRow, rows)
	for i := range out {
		out[i] = wideRow{id: int64(i), grp: int64(i % 7), pad: fmt.Sprintf("%s-%d", pad, i)}
	}
	return out
}

// TestParallelScanMatchesSequential runs full scans and full-scan
// aggregates at one worker and at eight over the same data and checks
// both against a model of the rows: the rows themselves, their page
// order, Keys, and exact INT aggregates.
func TestParallelScanMatchesSequential(t *testing.T) {
	const rows = 1500
	model := wideModel(rows)
	where := func(keep func(r wideRow) bool) []wideRow {
		var out []wideRow
		for _, r := range model {
			if keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
	type query struct {
		sql  string
		rows []string
		keys []uint64
	}
	// want is sql's expected reply: rs rendered as the engine returns
	// them, cols picking each row's values, and their keys.
	want := func(sql string, rs []wideRow, cols func(r wideRow) catalog.Row) query {
		q := query{sql: sql}
		for _, r := range rs {
			q.rows = append(q.rows, fmt.Sprint(cols(r)))
			q.keys = append(q.keys, uint64(r.id))
		}
		return q
	}
	all := func(r wideRow) catalog.Row {
		return catalog.Row{catalog.IntValue(r.id), catalog.IntValue(r.grp), catalog.TextValue(r.pad)}
	}
	id := func(r wideRow) catalog.Row { return catalog.Row{catalog.IntValue(r.id)} }
	idGrp := func(r wideRow) catalog.Row { return catalog.Row{catalog.IntValue(r.id), catalog.IntValue(r.grp)} }
	grp3 := where(func(r wideRow) bool { return r.grp == 3 })
	desc := where(func(r wideRow) bool { return r.grp >= 5 })
	slices.Reverse(desc)
	not2 := where(func(r wideRow) bool { return r.grp != 2 })
	var sum int64
	for _, r := range not2 {
		sum += r.id
	}
	aggQ := want("SELECT COUNT(*), SUM(id), AVG(id), MIN(id), MAX(id) FROM wide WHERE grp != 2", not2, id)
	aggQ.rows = []string{fmt.Sprint(catalog.Row{
		catalog.IntValue(int64(len(not2))), catalog.FloatValue(float64(sum)),
		catalog.FloatValue(float64(sum) / float64(len(not2))),
		catalog.IntValue(not2[0].id), catalog.IntValue(not2[len(not2)-1].id),
	})}
	queries := []query{
		want("SELECT * FROM wide", model, all),
		want("SELECT id FROM wide WHERE grp = 3", grp3, id),
		want("SELECT id FROM wide WHERE grp = 3 LIMIT 17", grp3[:17], id),
		want("SELECT id, grp FROM wide WHERE grp >= 5 ORDER BY id DESC LIMIT 40", desc[:40], idGrp),
		aggQ,
		{"SELECT COUNT(*) FROM wide WHERE grp = 99", []string{fmt.Sprint(catalog.Row{catalog.IntValue(0)})}, nil},
	}

	for _, workers := range []int{1, 8} {
		db := testDB(t, withScanWorkers(workers))
		loadWideTable(t, db, rows)
		tbl, err := db.getTable("wide")
		if err != nil {
			t.Fatal(err)
		}
		if w := db.scanWorkersFor(tbl); (w > 1) != (workers > 1) {
			t.Fatalf("workers=%d: scanWorkersFor = %d", workers, w)
		}
		for _, q := range queries {
			res := mustExec(t, db, q.sql)
			if len(res.Rows) != len(q.rows) {
				t.Fatalf("workers=%d: %s: %d rows, want %d", workers, q.sql, len(res.Rows), len(q.rows))
			}
			for i, row := range res.Rows {
				if got := fmt.Sprint(row); got != q.rows[i] {
					t.Fatalf("workers=%d: %s: row %d = %s, want %s", workers, q.sql, i, got, q.rows[i])
				}
			}
			if !slices.Equal(res.Keys, q.keys) {
				t.Fatalf("workers=%d: %s: keys %v, want %v", workers, q.sql, res.Keys, q.keys)
			}
		}
	}
}

// TestParallelScanLimitCancels: a tight LIMIT over a big heap must not
// scan every page. With one worker the walker streams pages to the
// LIMIT, so LIMIT 5 reads the one page that satisfies it. With more,
// early-cancel reaches the workers, and how far they ran ahead is
// bounded by the claim window, not by the scheduler: the first chunk
// satisfies the LIMIT, so at most scanWindow chunks were ever claimed
// (the workers term covers a reducer that moves past a chunk before it
// stops). Run it under -cpu 1,2,4: the bound is the same.
func TestParallelScanLimitCancels(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := testDB(t, withScanWorkers(workers))
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
			if workers == 1 {
				if touched != 1 {
					t.Fatalf("LIMIT 5 at one worker touched %d pages, want the 1 that holds the rows", touched)
				}
				return
			}
			if total := int64(tbl.heap.NumPages()); touched > total/2 {
				t.Fatalf("LIMIT 5 touched %d of %d pages; early-cancel not propagating", touched, total)
			}
			if bound := int64((scanWindow(workers) + workers) * scanChunkPages); touched > bound {
				t.Fatalf("LIMIT 5 touched %d pages; the claim window allows %d", touched, bound)
			}
		})
	}
}

// TestParallelScanPropagatesErrors: a mid-scan evaluation error (TEXT
// column compared to an INT literal) must surface, not hang or panic.
func TestParallelScanPropagatesErrors(t *testing.T) {
	db := testDB(t, withScanWorkers(4))
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
	db := testDB(t, withScanWorkers(8))
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
	db := testDB(t, withScanWorkers(4))
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

// loadFloatTable fills a table whose FLOAT column x holds values of
// mixed magnitude, so the order a SUM adds them in shows in its low bits,
// and returns x in insert order, which is the heap's page order for this
// append-only load.
func loadFloatTable(t *testing.T, db *Database, rows int) []float64 {
	t.Helper()
	mustExec(t, db, `CREATE TABLE f (id INT PRIMARY KEY, grp INT, x FLOAT, pad TEXT)`)
	pad := strings.Repeat("p", 80)
	xs := make([]float64, rows)
	var stmt strings.Builder
	for i := 0; i < rows; i++ {
		xs[i] = math.Abs(math.Sin(float64(i))) * math.Pow(10, float64(i%9-4))
		if stmt.Len() == 0 {
			stmt.WriteString(`INSERT INTO f VALUES `)
		} else {
			stmt.WriteString(", ")
		}
		fmt.Fprintf(&stmt, `(%d, %d, %s, '%s')`, i, i%5, strconv.FormatFloat(xs[i], 'f', -1, 64), pad)
		if (i+1)%100 == 0 || i == rows-1 {
			mustExec(t, db, stmt.String())
			stmt.Reset()
		}
	}
	return xs
}

// aggBits renders an aggregate's row so that two rows compare equal only
// if every value is bit-identical: floats as their IEEE bits.
func aggBits(row catalog.Row) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%v/%d/%#x ", v.Type, v.Int, math.Float64bits(v.Float))
	}
	return b.String()
}

// TestFullScanAggregateIgnoresWorkers: a full-scan aggregate folds one
// chunk at a time and merges the chunks in page order at any worker
// count, so a FLOAT SUM over a heap of several chunks returns the same
// bits on a host of any core count. A heap of one chunk folds its rows
// in page order: the plain sequential sum.
func TestFullScanAggregateIgnoresWorkers(t *testing.T) {
	const q = `SELECT SUM(x), AVG(x), MIN(x), MAX(x), COUNT(*) FROM f WHERE grp != 3`
	for _, c := range []struct {
		name           string
		rows           int
		minPgs, maxPgs storage.PageID
	}{
		{"chunks=many", 3000, 3*scanChunkPages + 1, math.MaxUint32},
		{"chunks=1", 400, 1, scanChunkPages},
	} {
		t.Run(c.name, func(t *testing.T) {
			var wantRow string
			var wantKeys []uint64
			for _, workers := range []int{1, 2, 4, 8} {
				db := testDB(t, withScanWorkers(workers))
				xs := loadFloatTable(t, db, c.rows)
				tbl, err := db.getTable("f")
				if err != nil {
					t.Fatal(err)
				}
				if n := tbl.heap.NumPages(); n < c.minPgs || n > c.maxPgs {
					t.Fatalf("heap spans %d pages, want %d..%d", n, c.minPgs, c.maxPgs)
				}
				res := mustExec(t, db, q)
				if workers == 1 {
					wantRow, wantKeys = aggBits(res.Rows[0]), res.Keys
				}
				if got := aggBits(res.Rows[0]); got != wantRow {
					t.Fatalf("workers=%d: row %s, want %s (workers=1)", workers, got, wantRow)
				}
				if !slices.Equal(res.Keys, wantKeys) {
					t.Fatalf("workers=%d: %d keys differ from workers=1's %d", workers, len(res.Keys), len(wantKeys))
				}
				if c.maxPgs > scanChunkPages {
					continue
				}
				// One chunk: the sequential fold, row by row.
				var sum float64
				var n int
				for i, x := range xs {
					if i%5 != 3 {
						sum += x
						n++
					}
				}
				if s, a := res.Rows[0][0].Float, res.Rows[0][1].Float; s != sum || a != sum/float64(n) {
					t.Fatalf("workers=%d: SUM, AVG = %v, %v, want the sequential fold's %v, %v", workers, s, a, sum, sum/float64(n))
				}
			}
		})
	}
}
