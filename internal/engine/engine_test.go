package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
)

func testDB(t *testing.T, opts ...Option) *Database {
	t.Helper()
	db, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	// Every statement must leave the buffer pool fully unpinned — a
	// nonzero count here means some fetch path leaked a pin. Skip the
	// check when another statement may be in flight on this db (the
	// concurrency tests run their own goroutines through db.Exec).
	if !concurrentUse(db) {
		if n := db.PinnedFrames(); n != 0 {
			t.Fatalf("Exec(%q): %d frames left pinned", sql, n)
		}
	}
	return res
}

// concurrentUse reports whether the test registered db as having
// statements in flight from other goroutines, which makes a
// point-in-time PinnedFrames()==0 assertion meaningless.
func concurrentUse(db *Database) bool {
	concurrentDBs.RLock()
	defer concurrentDBs.RUnlock()
	return concurrentDBs.m[db]
}

var concurrentDBs = struct {
	sync.RWMutex
	m map[*Database]bool
}{m: make(map[*Database]bool)}

// markConcurrent exempts db from mustExec's pin-leak assertion for the
// remainder of the test.
func markConcurrent(t *testing.T, db *Database) {
	t.Helper()
	concurrentDBs.Lock()
	concurrentDBs.m[db] = true
	concurrentDBs.Unlock()
	t.Cleanup(func() {
		concurrentDBs.Lock()
		delete(concurrentDBs.m, db)
		concurrentDBs.Unlock()
	})
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, gross FLOAT)`)
	res := mustExec(t, db, `INSERT INTO movies VALUES (1, 'Spider-Man', 403.7), (2, 'Signs', 227.9)`)
	if res.Affected != 2 {
		t.Fatalf("Affected = %d", res.Affected)
	}
	sel := mustExec(t, db, `SELECT * FROM movies WHERE id = 2`)
	if len(sel.Rows) != 1 {
		t.Fatalf("rows = %d", len(sel.Rows))
	}
	row := sel.Rows[0]
	if row[0].Int != 2 || row[1].Str != "Signs" || row[2].Float != 227.9 {
		t.Fatalf("row = %v", row)
	}
	if len(sel.Keys) != 1 || sel.Keys[0] != 2 {
		t.Fatalf("keys = %v", sel.Keys)
	}
	if strings.Join(sel.Columns, ",") != "id,title,gross" {
		t.Fatalf("columns = %v", sel.Columns)
	}
}

func TestSelectProjectionAndLimit(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, name TEXT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'n%d')`, i, i))
	}
	sel := mustExec(t, db, `SELECT name FROM t LIMIT 3`)
	if len(sel.Rows) != 3 || len(sel.Rows[0]) != 1 {
		t.Fatalf("rows = %v", sel.Rows)
	}
	if sel.Columns[0] != "name" {
		t.Fatalf("columns = %v", sel.Columns)
	}
	// Keys accompany projected rows even when the key is not projected.
	if len(sel.Keys) != 3 {
		t.Fatalf("keys = %v", sel.Keys)
	}
}

func TestSelectRangeUsesIndexOrder(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	// Insert out of order.
	for _, id := range []int{5, 1, 9, 3, 7, 2, 8, 4, 6} {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, id, id*10))
	}
	sel := mustExec(t, db, `SELECT id FROM t WHERE id BETWEEN 3 AND 7`)
	if len(sel.Rows) != 5 {
		t.Fatalf("rows = %d", len(sel.Rows))
	}
	for i, row := range sel.Rows {
		if row[0].Int != int64(i+3) {
			t.Fatalf("range scan out of order: %v", sel.Rows)
		}
	}
}

func TestSelectNonKeyPredicateFullScan(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, grade TEXT, score FLOAT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a', 10.5), (2, 'b', 20.5), (3, 'a', 30.5)`)
	sel := mustExec(t, db, `SELECT id FROM t WHERE grade = 'a' AND score > 15`)
	if len(sel.Rows) != 1 || sel.Rows[0][0].Int != 3 {
		t.Fatalf("rows = %v", sel.Rows)
	}
	// Numeric coercion: float column vs int literal.
	sel2 := mustExec(t, db, `SELECT id FROM t WHERE score <= 20.5`)
	if len(sel2.Rows) != 2 {
		t.Fatalf("rows = %v", sel2.Rows)
	}
}

func TestSelectImpossibleEquality(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	sel := mustExec(t, db, `SELECT * FROM t WHERE id = 1 AND id = 2`)
	if len(sel.Rows) != 0 {
		t.Fatalf("impossible predicate returned %v", sel.Rows)
	}
}

func TestInsertDuplicateKeyRejected(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestInsertArityAndTypeErrors(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, name TEXT)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES ('x', 'y')`); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1.5, 'y')`); err == nil {
		t.Fatal("float into INT accepted")
	}
}

func TestUpdateRows(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT, tag TEXT)`)
	for i := 1; i <= 5; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, 'x')`, i, i))
	}
	res := mustExec(t, db, `UPDATE t SET v = 100, tag = 'hot' WHERE id >= 4`)
	if res.Affected != 2 {
		t.Fatalf("Affected = %d", res.Affected)
	}
	sel := mustExec(t, db, `SELECT id FROM t WHERE tag = 'hot'`)
	if len(sel.Rows) != 2 {
		t.Fatalf("rows = %v", sel.Rows)
	}
	// Unchanged rows keep values.
	sel2 := mustExec(t, db, `SELECT v FROM t WHERE id = 1`)
	if sel2.Rows[0][0].Int != 1 {
		t.Fatalf("row 1 damaged: %v", sel2.Rows)
	}
}

func TestUpdatePrimaryKeyMovesIndex(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	mustExec(t, db, `UPDATE t SET id = 99 WHERE id = 1`)
	if sel := mustExec(t, db, `SELECT * FROM t WHERE id = 1`); len(sel.Rows) != 0 {
		t.Fatal("old key still resolves")
	}
	sel := mustExec(t, db, `SELECT v FROM t WHERE id = 99`)
	if len(sel.Rows) != 1 || sel.Rows[0][0].Int != 10 {
		t.Fatalf("new key: %v", sel.Rows)
	}
}

func TestUpdatePrimaryKeyCollisionRejected(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	if _, err := db.Exec(`UPDATE t SET id = 2 WHERE id = 1`); err == nil {
		t.Fatal("PK collision accepted")
	}
}

func TestDeleteRows(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	res := mustExec(t, db, `DELETE FROM t WHERE id > 5`)
	if res.Affected != 5 {
		t.Fatalf("Affected = %d", res.Affected)
	}
	sel := mustExec(t, db, `SELECT * FROM t`)
	if len(sel.Rows) != 5 {
		t.Fatalf("remaining = %d", len(sel.Rows))
	}
	// Deleted keys gone from index path too.
	if sel := mustExec(t, db, `SELECT * FROM t WHERE id = 7`); len(sel.Rows) != 0 {
		t.Fatal("deleted key still found")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`CREATE TABLE t (id INT, v INT)`); err == nil {
		t.Fatal("no primary key accepted")
	}
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT PRIMARY KEY)`); err == nil {
		t.Fatal("two primary keys accepted")
	}
	if _, err := db.Exec(`CREATE TABLE t (id BLOB PRIMARY KEY)`); err == nil {
		t.Fatal("unknown type accepted")
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestDropTable(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `DROP TABLE t`)
	if _, err := db.Exec(`SELECT * FROM t`); err == nil {
		t.Fatal("dropped table queryable")
	}
	// Can recreate.
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`SELECT * FROM nope`); err == nil {
		t.Fatal("unknown table accepted")
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	if _, err := db.Exec(`SELECT nope FROM t`); err == nil {
		t.Fatal("unknown projection column accepted")
	}
	if _, err := db.Exec(`SELECT * FROM t WHERE nope = 1`); err == nil {
		t.Fatal("unknown where column accepted")
	}
	if _, err := db.Exec(`UPDATE t SET nope = 1`); err == nil {
		t.Fatal("unknown set column accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, name TEXT)`)
	for i := 1; i <= 100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'name-%d')`, i, i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	sel := mustExec(t, db2, `SELECT name FROM t WHERE id = 42`)
	if len(sel.Rows) != 1 || sel.Rows[0][0].Str != "name-42" {
		t.Fatalf("reopened row = %v", sel.Rows)
	}
	all := mustExec(t, db2, `SELECT * FROM t`)
	if len(all.Rows) != 100 {
		t.Fatalf("reopened count = %d", len(all.Rows))
	}
}

func TestLargeTableSpillsPool(t *testing.T) {
	db := testDB(t, WithPoolPages(2))
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)`)
	pad := strings.Repeat("x", 500)
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, '%s')`, i, pad))
	}
	for i := 0; i < 200; i += 17 {
		// pad, not id alone: a key-only read answers from the index.
		sel := mustExec(t, db, fmt.Sprintf(`SELECT id, pad FROM t WHERE id = %d`, i))
		if len(sel.Rows) != 1 {
			t.Fatalf("row %d missing", i)
		}
	}
	_, misses, evicts := db.PoolStats()
	if misses == 0 || evicts == 0 {
		t.Fatalf("tiny pool: misses=%d evicts=%d", misses, evicts)
	}
}

func TestDropCachesForcesColdReads(t *testing.T) {
	db := testDB(t)
	// v, not id alone: a key-only read answers from the index.
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 1)`)
	mustExec(t, db, `SELECT * FROM t WHERE id = 1`)
	_, missesBefore, _ := db.PoolStats()
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `SELECT * FROM t WHERE id = 1`)
	_, missesAfter, _ := db.PoolStats()
	if missesAfter <= missesBefore {
		t.Fatal("read after DropCaches did not miss")
	}
}

func TestIOCostHookFires(t *testing.T) {
	calls := 0
	db := testDB(t, WithIOCost(func() { calls++ }))
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	db.Flush()
	if calls == 0 {
		t.Fatal("IO cost hook never fired")
	}
}

func TestClosedDatabaseErrors(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT * FROM t`); err == nil {
		t.Fatal("query on closed db accepted")
	}
	if err := db.Close(); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)`)
	s, err := db.Schema("t")
	if err != nil || len(s.Columns) != 2 || s.Columns[1].Type != catalog.Float {
		t.Fatalf("schema = %+v, %v", s, err)
	}
	if tables := db.Tables(); len(tables) != 1 || tables[0] != "t" {
		t.Fatalf("tables = %v", tables)
	}
}

func TestNegativeKeysWork(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (-5), (0), (5)`)
	sel := mustExec(t, db, `SELECT * FROM t WHERE id = -5`)
	if len(sel.Rows) != 1 || sel.Rows[0][0].Int != -5 {
		t.Fatalf("negative key: %v", sel.Rows)
	}
	r := mustExec(t, db, `SELECT * FROM t WHERE id >= -5 AND id <= 0`)
	if len(r.Rows) != 2 {
		t.Fatalf("negative range: %v", r.Rows)
	}
}

func TestCountStore(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE base (id INT PRIMARY KEY)`)
	cs, err := NewCountStore(db, "base")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cs.GetCount(7); err != nil || ok {
		t.Fatalf("fresh GetCount = %v, %v", ok, err)
	}
	if err := cs.PutCount(7, 3.5); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cs.GetCount(7)
	if err != nil || !ok || v != 3.5 {
		t.Fatalf("GetCount = %v, %v, %v", v, ok, err)
	}
	// Overwrite.
	if err := cs.PutCount(7, 9.5); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := cs.GetCount(7); v != 9.5 {
		t.Fatalf("updated count = %v", v)
	}
	// Reopening the store finds the same table.
	cs2, err := NewCountStore(db, "base")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := cs2.GetCount(7); !ok || v != 9.5 {
		t.Fatalf("second store GetCount = %v, %v", v, ok)
	}
}

func TestExecParseError(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`SELEC * FROM t`); err == nil {
		t.Fatal("parse error swallowed")
	}
}
