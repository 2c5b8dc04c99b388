package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sqlmini"
)

// planCacheDB opens a database with a small populated table: ids 0..49,
// grp = id%5, name = "n<id>".
func planCacheDB(t *testing.T) *Database {
	t.Helper()
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE items (id INT PRIMARY KEY, grp INT, name TEXT)`)
	for i := 0; i < 50; i += 10 {
		stmt := `INSERT INTO items VALUES `
		for j := i; j < i+10; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf(`(%d, %d, 'n%d')`, j, j%5, j)
		}
		mustExec(t, db, stmt)
	}
	return db
}

func TestPlanCacheHitOnRepeatedShape(t *testing.T) {
	db := planCacheDB(t)
	h0, m0, _, _ := db.PlanCacheStats()

	r1 := mustExec(t, db, `SELECT name FROM items WHERE id = 7`)
	if len(r1.Rows) != 1 || r1.Rows[0][0].Str != "n7" {
		t.Fatalf("first query: %+v", r1.Rows)
	}
	h1, m1, _, e1 := db.PlanCacheStats()
	if h1 != h0 || m1 != m0+1 || e1 != 1 {
		t.Fatalf("after first query: hits %d->%d misses %d->%d entries %d",
			h0, h1, m0, m1, e1)
	}

	// Same shape, different literal: must hit and bind the new parameter.
	r2 := mustExec(t, db, `SELECT name FROM items WHERE id = 9`)
	if len(r2.Rows) != 1 || r2.Rows[0][0].Str != "n9" {
		t.Fatalf("second query: %+v", r2.Rows)
	}
	h2, m2, _, e2 := db.PlanCacheStats()
	if h2 != h1+1 || m2 != m1 || e2 != 1 {
		t.Fatalf("after second query: hits %d->%d misses %d->%d entries %d",
			h1, h2, m1, m2, e2)
	}
}

func TestPlanCacheNormalizationSharesShapes(t *testing.T) {
	db := planCacheDB(t)

	// Case, whitespace, trailing semicolon, and literal value all
	// normalize away: five statements, one cache entry, four hits.
	variants := []struct {
		sql  string
		want string
	}{
		{`SELECT name FROM items WHERE id = 3`, "n3"},
		{`select name from items where id = 4`, "n4"},
		{"SELECT\tname  FROM items\nWHERE id=5", "n5"},
		{`  SELECT name FROM items WHERE id = 6 ; `, "n6"},
		{`Select Name From Items Where Id = 7`, "n7"},
	}
	h0, m0, _, _ := db.PlanCacheStats()
	for _, v := range variants {
		res := mustExec(t, db, v.sql)
		if len(res.Rows) != 1 || res.Rows[0][0].Str != v.want {
			t.Fatalf("%q: got %+v, want %q", v.sql, res.Rows, v.want)
		}
	}
	h1, m1, _, entries := db.PlanCacheStats()
	if m1 != m0+1 {
		t.Errorf("misses: %d -> %d, want exactly one (shared shape)", m0, m1)
	}
	if h1 != h0+int64(len(variants)-1) {
		t.Errorf("hits: %d -> %d, want +%d", h0, h1, len(variants)-1)
	}
	if entries != 1 {
		t.Errorf("entries = %d, want 1", entries)
	}
}

func TestPlanCacheInvalidatedByIndexDDL(t *testing.T) {
	db := planCacheDB(t)
	mustExec(t, db, `SELECT grp FROM items WHERE id = 1`)
	mustExec(t, db, `SELECT grp FROM items WHERE id = 2`) // hit: cache warm
	_, m0, inv0, _ := db.PlanCacheStats()

	mustExec(t, db, `CREATE INDEX by_grp ON items (grp)`)
	_, _, inv1, entries := db.PlanCacheStats()
	if inv1 <= inv0 {
		t.Errorf("invalidations %d -> %d, want growth on CREATE INDEX", inv0, inv1)
	}
	if entries != 0 {
		t.Errorf("entries = %d after CREATE INDEX, want 0", entries)
	}

	// The dropped plan must not be served: the next same-shape query
	// misses, rebuilds against the new schema epoch, and still answers
	// correctly (now eligible for the secondary index path on grp).
	res := mustExec(t, db, `SELECT grp FROM items WHERE id = 3`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 3 {
		t.Fatalf("post-DDL query: %+v", res.Rows)
	}
	_, m1, _, _ := db.PlanCacheStats()
	if m1 != m0+1 {
		t.Errorf("misses %d -> %d, want exactly one post-DDL rebuild", m0, m1)
	}

	mustExec(t, db, `DROP INDEX by_grp ON items`)
	if _, _, _, entries := db.PlanCacheStats(); entries != 0 {
		t.Errorf("entries = %d after DROP INDEX, want 0", entries)
	}
	res = mustExec(t, db, `SELECT grp FROM items WHERE id = 4`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 4 {
		t.Fatalf("post-DROP INDEX query: %+v", res.Rows)
	}
}

func TestPlanCacheNeverServesAcrossSchemaChange(t *testing.T) {
	db := planCacheDB(t)
	// Warm the shape against the original layout (name is column 2).
	mustExec(t, db, `SELECT name FROM items WHERE id = 1`)
	mustExec(t, db, `SELECT name FROM items WHERE id = 2`)

	// Recreate the table with name moved to column 1 and a new column. A
	// stale template would project the old ordinal and read grp's slot.
	mustExec(t, db, `DROP TABLE items`)
	mustExec(t, db, `CREATE TABLE items (id INT PRIMARY KEY, name TEXT, extra INT)`)
	mustExec(t, db, `INSERT INTO items VALUES (1, 'fresh', 42)`)

	res := mustExec(t, db, `SELECT name FROM items WHERE id = 1`)
	if len(res.Columns) != 1 || res.Columns[0] != "name" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "fresh" {
		t.Fatalf("rows = %+v, want [[fresh]]", res.Rows)
	}
}

func TestPlanCacheParamEdgesMatchUncached(t *testing.T) {
	db := planCacheDB(t)

	// Each query runs twice through Exec so the second execution goes
	// through the bound template, and once through the parser and
	// ExecStmt, which never reach the cache, as the oracle.
	queries := []string{
		`SELECT name FROM items WHERE id = 5`,
		`SELECT name FROM items WHERE id = 5.5`, // float on INT key: no match, no error
		`SELECT id FROM items WHERE grp = 1 LIMIT 2`,
		`SELECT id FROM items WHERE grp = 1 LIMIT 3`, // same shape, LIMIT is a parameter
		`SELECT id FROM items WHERE grp = 1 LIMIT 0`,
		`SELECT name FROM items WHERE id >= 48 AND id <= 49`,
		`SELECT name FROM items WHERE id BETWEEN 48 AND 49`,
	}
	for _, q := range queries {
		stmt, err := sqlmini.Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want, err := db.ExecStmt(stmt, nil)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		mustExec(t, db, q) // warm the shape
		got := mustExec(t, db, q)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%q: cached %d rows, uncached %d", q, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				if got.Rows[i][j] != want.Rows[i][j] {
					t.Fatalf("%q row %d col %d: cached %+v, uncached %+v",
						q, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
	}
}

// TestPlanCacheConcurrentDDL races point queries against index churn:
// every query must still parse-or-bind to a correct single-row answer,
// and -race must stay quiet across the epoch bumps and purges.
func TestPlanCacheConcurrentDDL(t *testing.T) {
	db := planCacheDB(t)
	markConcurrent(t, db)

	stop := make(chan struct{})
	var ddl sync.WaitGroup
	ddl.Add(1)
	go func() {
		defer ddl.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				_, err = db.Exec(`CREATE INDEX by_grp ON items (grp)`)
			} else {
				_, err = db.Exec(`DROP INDEX by_grp ON items`)
			}
			if err != nil {
				t.Errorf("DDL %d: %v", i, err)
				return
			}
		}
	}()

	const readers = 4
	var rd sync.WaitGroup
	rd.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer rd.Done()
			for i := 0; i < 200; i++ {
				id := (r*97 + i*13) % 50
				res, err := db.Exec(fmt.Sprintf(`SELECT name FROM items WHERE id = %d`, id))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Str != fmt.Sprintf("n%d", id) {
					t.Errorf("reader %d id %d: %+v", r, id, res.Rows)
					return
				}
			}
		}(r)
	}

	rd.Wait()
	close(stop)
	ddl.Wait()
}

// At capacity, new shapes must not cache — and, critically, must not
// evict the warm working set (DESIGN §13: an adversarial flood of
// distinct shapes is priced by the delay defense, not allowed to churn
// the cache).
func TestPlanCacheCapacityFloodDoesNotEvict(t *testing.T) {
	db := planCacheDB(t)
	db.planCache = newPlanCache(2)

	warm := []string{
		`SELECT name FROM items WHERE id = 1`,
		`SELECT grp FROM items WHERE id = 2`,
	}
	for _, q := range warm {
		mustExec(t, db, q)
	}
	if _, _, _, e := db.PlanCacheStats(); e != 2 {
		t.Fatalf("entries = %d after warming, want 2", e)
	}

	// Flood with distinct shapes: none may enter, none may evict.
	flood := []string{
		`SELECT id FROM items WHERE grp = 3`,
		`SELECT name, grp FROM items WHERE id = 4`,
		`SELECT id, name FROM items WHERE grp = 0 AND id = 5`,
		`SELECT grp, name FROM items WHERE id = 6 LIMIT 1`,
	}
	for _, q := range flood {
		mustExec(t, db, q)
	}
	if _, _, _, e := db.PlanCacheStats(); e != 2 {
		t.Fatalf("entries = %d after flood, want 2 (no eviction at capacity)", e)
	}

	// The warm shapes still hit.
	h0, _, _, _ := db.PlanCacheStats()
	for _, q := range warm {
		mustExec(t, db, q)
	}
	h1, _, _, e := db.PlanCacheStats()
	if h1 != h0+int64(len(warm)) || e != 2 {
		t.Fatalf("warm shapes after flood: hits %d->%d entries %d, want %d hits and 2 entries",
			h0, h1, e, h0+int64(len(warm)))
	}
}

// A store stamped before a racing DDL purge must not wipe the entries
// rebuilt under the new epoch: only entries older than the incoming
// stamp are dropped during the copy, and the stale insert itself is
// rejected by the next lookup.
func TestPlanCacheStaleStoreKeepsNewerEntries(t *testing.T) {
	pc := newPlanCache(8)
	fresh := &planEntry{epoch: 2, table: "items"}
	pc.store([]byte("k-fresh"), fresh)

	// Racing store built under the pre-purge epoch.
	pc.store([]byte("k-stale"), &planEntry{epoch: 1, table: "items"})

	if got := pc.lookup([]byte("k-fresh"), 2); got != fresh {
		t.Fatalf("fresh entry lost after stale store: %+v", got)
	}
	if got := pc.lookup([]byte("k-stale"), 2); got != nil {
		t.Fatalf("stale entry served: %+v", got)
	}
	// The stale entry was dropped by its failed lookup; a current-epoch
	// store for the same key must now succeed.
	cur := &planEntry{epoch: 2, table: "items"}
	pc.store([]byte("k-stale"), cur)
	if got := pc.lookup([]byte("k-stale"), 2); got != cur {
		t.Fatalf("current-epoch re-store missing: %+v", got)
	}
}
