package engine

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestCountStoreAllCounts(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE base (id INT PRIMARY KEY)`)
	cs, err := NewCountStore(db, "base")
	if err != nil {
		t.Fatal(err)
	}
	ids, counts, err := cs.AllCounts()
	if err != nil || len(ids) != 0 || len(counts) != 0 {
		t.Fatalf("empty AllCounts = %v %v %v", ids, counts, err)
	}
	for i := 0; i < 20; i++ {
		if err := cs.PutCount(uint64(i), float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	ids, counts, err = cs.AllCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 20 {
		t.Fatalf("AllCounts len = %d", len(ids))
	}
	seen := map[uint64]float64{}
	for i, id := range ids {
		seen[id] = counts[i]
	}
	for i := 0; i < 20; i++ {
		if seen[uint64(i)] != float64(i)*1.5 {
			t.Fatalf("id %d count = %v", i, seen[uint64(i)])
		}
	}
}

// countTables lists the catalog's count tables.
func countTables(db *Database) []string {
	var out []string
	for _, name := range db.Tables() {
		if strings.HasPrefix(name, "__counts_") {
			out = append(out, name)
		}
	}
	return out
}

// wantCounts fails unless the store holds exactly ids[i] -> counts[i].
func wantCounts(t *testing.T, cs *CountStore, ids []uint64, counts []float64) {
	t.Helper()
	gotIDs, gotCounts, err := cs.AllCounts()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotIDs, ids) || !slices.Equal(gotCounts, counts) {
		t.Fatalf("store holds %d ids %v… / %v…, want %d ids", len(gotIDs), gotIDs[:min(3, len(gotIDs))], gotCounts[:min(3, len(gotCounts))], len(ids))
	}
}

// TestCountStoreGenerations: a save fills the next generation and drops
// the live one, so the catalog holds one count table between saves; the
// lowest generation found on open is live (a bare "__counts_<base>", what
// the store wrote before it had generations, is generation 0) and a
// higher one is an unfinished save and goes.
func TestCountStoreGenerations(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithPoolPages(8), WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCountStore(db, "base")
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.PutCount(7, 3.5); err != nil { // into generation 0
		t.Fatal(err)
	}
	if got := countTables(db); !slices.Equal(got, []string{"__counts_base"}) {
		t.Fatalf("count tables = %v", got)
	}
	// Larger than the 8-page pool: no statement of the save may need it all.
	ids := make([]uint64, 5000)
	a, b := make([]float64, len(ids)), make([]float64, len(ids))
	for i := range ids {
		ids[i], a[i], b[i] = uint64(i+1), 1, 2
	}
	if err := cs.ReplaceAllCounts(ids, a); err != nil {
		t.Fatal(err)
	}
	if err := cs.ReplaceAllCounts(ids[:3000], b[:3000]); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, cs, ids[:3000], b[:3000])
	if got := countTables(db); !slices.Equal(got, []string{"__counts_base_2"}) {
		t.Fatalf("count tables after two saves = %v", got)
	}
	if n := db.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
	// A save killed before its commit leaves a higher generation behind.
	if err := db.CreateTable(countSchema("__counts_base_3")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO __counts_base_3 VALUES (1, 9.0)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, WithPoolPages(8), WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cs, err = NewCountStore(db, "base")
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, cs, ids[:3000], b[:3000])
	if got := countTables(db); !slices.Equal(got, []string{"__counts_base_2"}) {
		t.Fatalf("count tables after reopen = %v", got)
	}
	if v, ok, err := cs.GetCount(3000); err != nil || !ok || v != 2 {
		t.Fatalf("GetCount(3000) = %v, %v, %v", v, ok, err)
	}
	if _, ok, _ := cs.GetCount(3001); ok {
		t.Fatal("a row of the larger, older snapshot survived the smaller save")
	}
	if _, err := NewCountStore(db, "base_2"); err == nil {
		t.Fatal("a base table named like a generation of another was accepted")
	}
}

// TestCountStoreFailedSave: a save that fails part-way leaves the previous
// snapshot live, and the next save clears what it left and goes through.
func TestCountStoreFailedSave(t *testing.T) {
	db := testDB(t, WithWAL(false))
	cs, err := NewCountStore(db, "base")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 3*countBatchRows)
	a, b := make([]float64, len(ids)), make([]float64, len(ids))
	for i := range ids {
		ids[i], a[i], b[i] = uint64(i), 1, 2
	}
	if err := cs.ReplaceAllCounts(ids, a); err != nil {
		t.Fatal(err)
	}
	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{Site: fault.WALAppend, Kind: fault.Error, After: 1, Count: 1}))
	err = cs.ReplaceAllCounts(ids, b)
	fault.Disable()
	if err == nil {
		t.Fatal("the save survived a failed log append")
	}
	wantCounts(t, cs, ids, a)
	if err := cs.ReplaceAllCounts(ids, b); err != nil {
		t.Fatalf("save after a failed save: %v", err)
	}
	wantCounts(t, cs, ids, b)
	if got := countTables(db); len(got) != 1 {
		t.Fatalf("count tables = %v, want one", got)
	}
}

// TestCreateTableOverOrphanedFile: a DropTable killed between its catalog
// commit and its file removals leaves a data file no table owns; a later
// table of that name must start empty.
func TestCreateTableOverOrphanedFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	orphan, err := os.ReadFile(db.tablePath("t"))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `DROP TABLE t`)
	if err := os.WriteFile(db.tablePath("t"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	if res := mustExec(t, db, `SELECT COUNT(*) FROM t`); res.Rows[0][0].Int != 0 {
		t.Fatalf("the new table holds the orphaned file's %d rows", res.Rows[0][0].Int)
	}
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
}

func TestSecondaryIndexFloatAndTextChurn(t *testing.T) {
	// Exercise secondary.remove across all three key types through heavy
	// update/delete churn, then reconcile against a scan.
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE m (id INT PRIMARY KEY, f FLOAT, s TEXT, n INT)`)
	mustExec(t, db, `CREATE INDEX by_f ON m (f)`)
	mustExec(t, db, `CREATE INDEX by_s ON m (s)`)
	mustExec(t, db, `CREATE INDEX by_n ON m (n)`)
	for i := 0; i < 60; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO m VALUES (%d, %d.5, 'tag%d', %d)`, i, i%4, i%5, i%6))
	}
	// Churn: moves between keys and deletions.
	mustExec(t, db, `UPDATE m SET f = 99.5, s = 'moved', n = 99 WHERE id < 10`)
	mustExec(t, db, `DELETE FROM m WHERE id >= 50`)

	check := func(where string, wantBy func(id int64) bool) {
		t.Helper()
		res := mustExec(t, db, `SELECT id FROM m WHERE `+where)
		got := map[int64]bool{}
		for _, row := range res.Rows {
			got[row[0].Int] = true
		}
		for id := int64(0); id < 60; id++ {
			want := wantBy(id)
			if got[id] != want {
				t.Fatalf("WHERE %s: id %d present=%v want=%v", where, id, got[id], want)
			}
		}
	}
	live := func(id int64) bool { return id < 50 }
	check(`f = 99.5`, func(id int64) bool { return live(id) && id < 10 })
	check(`s = 'moved'`, func(id int64) bool { return live(id) && id < 10 })
	check(`n = 99`, func(id int64) bool { return live(id) && id < 10 })
	check(`f = 1.5`, func(id int64) bool { return live(id) && id >= 10 && id%4 == 1 })
	check(`s = 'tag2'`, func(id int64) bool { return live(id) && id >= 10 && id%5 == 2 })
	check(`n = 3`, func(id int64) bool { return live(id) && id >= 10 && id%6 == 3 })
}

func TestLoadTableRebuildsSecondaries(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE m (id INT PRIMARY KEY, f FLOAT)`)
	mustExec(t, db, `CREATE INDEX by_f ON m (f)`)
	mustExec(t, db, `INSERT INTO m VALUES (1, 2.5), (2, 2.5), (3, 9.5)`)
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, `SELECT COUNT(*) FROM m WHERE f = 2.5`)
	if res.Rows[0][0].Int != 2 {
		t.Fatalf("rebuilt float index count = %v", res.Rows[0][0])
	}
	// And the plan actually uses it.
	plan := mustExec(t, db2, `EXPLAIN SELECT * FROM m WHERE f = 2.5`)
	if plan.Rows[0][0].Str == "full table scan" {
		t.Fatal("rebuilt index not used")
	}
}
