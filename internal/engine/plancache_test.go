package engine

import (
	"fmt"
	"reflect"
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

// planCacheEdges are SELECTs on planCacheDB's table whose cached plan
// must answer as the parser does. parts, when set, is a partition set of
// a 4-way split to run the statement in; hits and misses are the cache's
// counters across two prepared runs of it, in order: a hit is an
// execution that skipped the parser.
var planCacheEdges = []struct {
	sql          string
	parts        []int
	hits, misses int64
}{
	{sql: `SELECT name FROM items WHERE id = 5`, hits: 1, misses: 1},
	{sql: `SELECT name FROM items WHERE id = 5.5`, hits: 2}, // float on INT key: no match, no error
	{sql: `SELECT id FROM items WHERE grp = 1 LIMIT 2`, hits: 1, misses: 1},
	{sql: `SELECT id FROM items WHERE grp = 1 LIMIT 3`, hits: 2}, // same shape, LIMIT is a parameter
	{sql: `SELECT id FROM items WHERE grp = 1 LIMIT 0`, hits: 2},
	{sql: `SELECT name FROM items WHERE id >= 48 AND id <= 49`, hits: 1, misses: 1},
	{sql: `SELECT name FROM items WHERE id BETWEEN 48 AND 49`, hits: 1, misses: 1},
	{sql: `SELECT id, name FROM items WHERE grp = 2 ORDER BY name DESC LIMIT 3`, hits: 1, misses: 1},
	{sql: `SELECT id, name FROM items WHERE grp = 2 ORDER BY name DESC LIMIT 5`, hits: 2},
	{sql: `SELECT COUNT(*) FROM items WHERE id BETWEEN 10 AND 19`, hits: 1, misses: 1},
	// An aggregate that names a column is labeled as the statement
	// spells it, which the normalized key folds: never kept.
	{sql: `SELECT SUM(Grp) FROM items WHERE id < 20`, misses: 2},
	{sql: `SELECT sum(grp) FROM items WHERE id < 20`, misses: 2},
	{sql: `SELECT id, grp FROM items WHERE grp >= 3 LIMIT 4`, parts: []int{1, 3}, hits: 1, misses: 1},
}

func TestPlanCacheParamEdgesMatchUncached(t *testing.T) {
	db := planCacheDB(t)

	// Each query runs twice through Prepare and ExecIn so the second
	// execution binds the cached plan, and once through the parser and
	// ExecStmt, which never reach the cache, as the oracle.
	for _, q := range planCacheEdges {
		var parts *PartitionSet
		if q.parts != nil {
			var err error
			if parts, err = NewPartitionSet(4, q.parts); err != nil {
				t.Fatal(err)
			}
		}
		stmt, err := sqlmini.Parse(q.sql)
		if err != nil {
			t.Fatalf("%q: %v", q.sql, err)
		}
		want, err := db.ExecStmt(stmt, parts)
		if err != nil {
			t.Fatalf("%q: %v", q.sql, err)
		}
		h0, m0, _, _ := db.PlanCacheStats()
		var got *Result
		for range 2 { // the first run warms the shape
			p, err := db.Prepare(q.sql)
			if err != nil {
				t.Fatalf("%q: %v", q.sql, err)
			}
			got, err = p.ExecIn(parts)
			p.Release()
			if err != nil {
				t.Fatalf("%q: %v", q.sql, err)
			}
			if n := db.PinnedFrames(); n != 0 {
				t.Fatalf("%q: %d frames left pinned", q.sql, n)
			}
		}
		h1, m1, _, _ := db.PlanCacheStats()
		if h1-h0 != q.hits || m1-m0 != q.misses {
			t.Errorf("%q: %d hits, %d misses over two runs; want %d, %d", q.sql, h1-h0, m1-m0, q.hits, q.misses)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Keys, want.Keys) {
			t.Fatalf("%q: cached columns %v keys %v, uncached %v %v", q.sql, got.Columns, got.Keys, want.Columns, want.Keys)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%q: cached %d rows, uncached %d", q.sql, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				if got.Rows[i][j] != want.Rows[i][j] {
					t.Fatalf("%q row %d col %d: cached %+v, uncached %+v",
						q.sql, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
	}
}

// FuzzPlanCache: every statement that parses as a SELECT answers the
// same through Exec, cold (the cache emptied, so it plans and offers
// the plan) and warm (the plan cache's bound plan, when it kept one),
// as through ExecStmt on the parsed statement: the same Columns, Rows
// and Keys, or the same error text.
func FuzzPlanCache(f *testing.F) {
	for _, q := range planCacheEdges {
		f.Add(q.sql)
	}
	for _, q := range []string{
		`SELECT * FROM items`,
		`select NAME from ITEMS where ID = 7`,
		`SELECT id FROM items WHERE grp = 1 AND id > 20 ORDER BY id LIMIT 2`,
		`SELECT AVG(grp), MIN(name), MAX(id), COUNT(*) FROM items WHERE grp <> 4`,
		`SELECT COUNT(*) FROM items LIMIT 0`,
		`SELECT name FROM items WHERE name = 5`, // a comparison error at run time
		`SELECT name FROM items WHERE name >= 'n4' ORDER BY grp`,
		`SELECT SUM(name) FROM items`,
		`SELECT nope FROM items WHERE id = 1`,
		`SELECT id FROM items ORDER BY nope`,
		`SELECT * FROM nowhere WHERE id = 1`,
		`EXPLAIN SELECT id FROM items WHERE grp = 2`,
		`SELECT id FROM items WHERE id = 3 AND id = 4`,
	} {
		f.Add(q)
	}
	db, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	for _, q := range []string{
		`CREATE TABLE items (id INT PRIMARY KEY, grp INT, name TEXT)`,
		`CREATE INDEX by_grp ON items (grp)`,
	} {
		if _, err := db.Exec(q); err != nil {
			f.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO items VALUES (%d, %d, 'n%d')`, i, i%5, i)); err != nil {
			f.Fatal(err)
		}
	}
	outcome := func(res *Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%q %v %v", res.Columns, res.Rows, res.Keys)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlmini.Parse(sql)
		if err != nil {
			return
		}
		if _, ok := stmt.(*sqlmini.Select); !ok {
			return
		}
		want := outcome(db.ExecStmt(stmt, nil))
		db.planCache.purge()
		for _, run := range []string{"cold", "warm"} {
			if got := outcome(db.Exec(sql)); got != want {
				t.Fatalf("%s %q:\n  Exec:     %s\n  ExecStmt: %s", run, sql, got, want)
			}
		}
	})
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
	fresh := &selPlan{epoch: 2, table: "items"}
	pc.store([]byte("k-fresh"), fresh)

	// Racing store built under the pre-purge epoch.
	pc.store([]byte("k-stale"), &selPlan{epoch: 1, table: "items"})

	if got := pc.lookup([]byte("k-fresh"), 2); got != fresh {
		t.Fatalf("fresh entry lost after stale store: %+v", got)
	}
	if got := pc.lookup([]byte("k-stale"), 2); got != nil {
		t.Fatalf("stale entry served: %+v", got)
	}
	// The stale entry was dropped by its failed lookup; a current-epoch
	// store for the same key must now succeed.
	cur := &selPlan{epoch: 2, table: "items"}
	pc.store([]byte("k-stale"), cur)
	if got := pc.lookup([]byte("k-stale"), 2); got != cur {
		t.Fatalf("current-epoch re-store missing: %+v", got)
	}
}
