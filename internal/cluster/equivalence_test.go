package cluster

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// equivalenceStream is one fixed statement stream covering every plan
// kind the router has — broadcast (DDL), single-key and split INSERT,
// replica read, group write, scatter write, ordered/limited and
// aggregate scatter reads, the any-shard EXPLAIN — plus both error
// classes (rejected at the router's edge, rejected by a shard).
var equivalenceStream = []struct {
	sql string
	ok  bool // whether a single node accepts it
}{
	{`CREATE TABLE books (id INT PRIMARY KEY, shelf INT, title TEXT)`, true},
	{`CREATE INDEX books_shelf ON books (shelf)`, true},
	{`INSERT INTO books VALUES (1, 10, 'one')`, true},
	{`INSERT INTO books VALUES (2, 10, 'two'), (3, 20, 'three'), (4, 20, 'four'), (5, 30, 'five'), (6, 30, 'six'), (7, 40, 'seven'), (8, 40, 'eight')`, true},
	{`SELECT * FROM books WHERE id = 3`, true},
	{`SELECT title FROM books WHERE id = 99`, true},
	{`UPDATE books SET title = 'THREE' WHERE id = 3`, true},
	{`UPDATE books SET shelf = 50 WHERE shelf = 40`, true},
	{`UPDATE books SET title = 'nobody' WHERE id = 99`, true},
	{`SELECT id, shelf, title FROM books ORDER BY id`, true},
	{`SELECT id FROM books ORDER BY title DESC LIMIT 3`, true}, // sort column not projected; no ties, whose order no front door promises
	{`SELECT id FROM books WHERE shelf = 50 ORDER BY id`, true},
	{`SELECT COUNT(*), SUM(shelf), MIN(shelf), MAX(shelf), AVG(shelf) FROM books`, true},
	{`SELECT COUNT(*), MIN(id) FROM books WHERE shelf > 1000`, true},
	{`SELECT SUM(Shelf), max(SHELF) FROM books`, true}, // labels keep the statement's spelling
	// LIMIT 0 answers no row on every shape, the aggregate's summary row
	// included: the engine decides, the router's legs and merge follow.
	{`SELECT * FROM books WHERE id = 3 LIMIT 0`, true},
	{`SELECT id FROM books WHERE shelf >= 10 LIMIT 0`, true},
	{`SELECT id FROM books ORDER BY title LIMIT 0`, true},
	{`SELECT COUNT(*), MAX(shelf) FROM books LIMIT 0`, true},
	{`EXPLAIN SELECT * FROM books WHERE shelf = 10`, false}, // the shield refuses EXPLAIN at every front door
	{`SELEKT * FROM books`, false},
	{`INSERT INTO books VALUES (2, 10, 'again')`, false},
	{`INSERT INTO books VALUES (9, 'not-an-int', 'x')`, false},
	{`SELECT * FROM nowhere`, false},
	{`DELETE FROM books WHERE id = 1`, true},
	{`DELETE FROM books WHERE shelf = 30`, true},
	{`SELECT COUNT(*) FROM books`, true},
	{`SELECT id, title FROM books ORDER BY id DESC`, true},
	// A FLOAT the router re-renders (a split INSERT, a scatter WHERE)
	// must lex back as the same FLOAT: not in exponent form, which the
	// lexer rejects, and not as an INT, which an INT column accepts.
	// Every row of the rejected INSERT carries the 2.0: a split INSERT
	// that some owners accept and others reject is not atomic (DESIGN §16).
	{`CREATE TABLE ledger (id INT PRIMARY KEY, qty INT, amount FLOAT)`, true},
	{`INSERT INTO ledger VALUES (1, 1, 2500000.5), (2, 2, 0.00001), (3, 3, 2.0), (4, 4, 1000000.5)`, true},
	{`SELECT COUNT(*), SUM(amount) FROM ledger WHERE amount >= 1000000.5`, true},
	{`INSERT INTO ledger VALUES (5, 2.0, 1.5), (6, 2.0, 2.5)`, false},
	{`SELECT id, qty, amount FROM ledger ORDER BY id`, true},
	{`DROP TABLE ledger`, true},
	{`DROP TABLE books`, true},
	{`SELECT * FROM books`, false},
}

// outcome is what a client can tell two front doors apart by.
type outcome struct {
	Status   int
	Columns  []string
	Rows     [][]string
	Affected int
}

func runStream(t *testing.T, h http.Handler) []outcome {
	t.Helper()
	out := make([]outcome, len(equivalenceStream))
	for i, st := range equivalenceStream {
		resp, body := query(t, h, "client", st.sql)
		out[i].Status = resp.StatusCode
		if resp.StatusCode != http.StatusOK {
			continue
		}
		qr := decodeQuery(t, body)
		out[i].Columns, out[i].Rows, out[i].Affected = qr.Columns, qr.Rows, qr.Affected
	}
	return out
}

// TestTopologiesAnswerIdentically is the equivalence that licenses
// having one topology: the same statement stream through one plain
// shard, through a fully replicated 3-shard router (the zero-value
// Config), and through 3 shards × 64 partitions × R=1 must be
// indistinguishable to the client.
func TestTopologiesAnswerIdentically(t *testing.T) {
	shard, _ := newShard(t, 100, nil)
	want := runStream(t, shard)
	for i, st := range equivalenceStream {
		if got := want[i].Status == http.StatusOK; got != st.ok {
			t.Fatalf("reference shard answered %q with HTTP %d; the stream expects ok=%v", st.sql, want[i].Status, st.ok)
		}
	}

	full := newTestCluster(t, clusterOpts{Shards: 3})
	split := newTestCluster(t, clusterOpts{Shards: 3, Config: Config{Partitions: 64}})
	for name, c := range map[string]*testCluster{"full replication": full, "64 partitions x R=1": split} {
		got := runStream(t, c.Handler)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: %q\n  router: %+v\n  shard:  %+v", name, equivalenceStream[i].sql, got[i], want[i])
			}
		}
		if hr := healthOf(t, c.Handler); hr.Status != "ok" {
			t.Errorf("%s: health after the stream = %q (%+v); an error statement quarantined a healthy shard", name, hr.Status, hr.Peers)
		}
	}
}

// TestPredicateWriteRelaysAShardRejection: a predicate write whose
// pre-count a shard rejects, as it would reject the write itself, is
// answered as a node answers the write — the shard's 400, not a 503
// that tells the client to retry what can never succeed.
func TestPredicateWriteRelaysAShardRejection(t *testing.T) {
	shard, _ := newShard(t, 100, nil)
	full := newTestCluster(t, clusterOpts{Shards: 3, Tuples: 10})
	split := newTestCluster(t, clusterOpts{Shards: 3, Tuples: 10, Config: Config{Partitions: 64}})
	for _, sql := range []string{
		`UPDATE items SET v = 'x' WHERE nosuch = 1`,
		`DELETE FROM items WHERE nosuch = 1`,
		`UPDATE items SET v = 'x' WHERE id > 3 AND nosuch < 7`,
	} {
		want, wantBody := query(t, shard, "client", sql)
		if want.StatusCode != http.StatusBadRequest {
			t.Fatalf("node: %s: HTTP %d: %s", sql, want.StatusCode, wantBody)
		}
		for name, c := range map[string]*testCluster{"full replication": full, "64 partitions x R=1": split} {
			got, body := query(t, c.Handler, "client", sql)
			if got.StatusCode != want.StatusCode || string(body) != string(wantBody) {
				t.Errorf("%s: %s:\n  router: HTTP %d %s\n  node:   HTTP %d %s", name, sql, got.StatusCode, body, want.StatusCode, wantBody)
			}
		}
	}

	// A table the router still keys but the shards no longer hold — a
	// DROP planned after this statement was — is the shards' 400 too.
	full.Router.schemas.Store("ghost", tableKey{name: "id", idx: 0})
	if resp, body := query(t, full.Handler, "client", `UPDATE ghost SET v = 'x' WHERE v = 'a'`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("predicate write to a dropped table: HTTP %d: %s, want 400", resp.StatusCode, body)
	}
	if hr := healthOf(t, full.Handler); hr.Status != "ok" {
		t.Errorf("health after the rejections = %q (%+v)", hr.Status, hr.Peers)
	}
}

// tableDump reads a whole table off one shard, ordered, as one string.
func tableDump(t *testing.T, shard http.Handler, table string) string {
	t.Helper()
	resp, body := query(t, shard, "probe", fmt.Sprintf(`SELECT * FROM %s ORDER BY id`, table))
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, body)
	}
	return fmt.Sprint(decodeQuery(t, body).Rows)
}

// TestFullReplicationHoldsEveryRowEverywhere: under the zero-value
// Config every shard holds every row, however the write was routed —
// single-key, split multi-row, predicate.
func TestFullReplicationHoldsEveryRowEverywhere(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 3, Tuples: 40})
	for _, sql := range []string{
		`INSERT INTO items VALUES (41, 'v41')`,
		`UPDATE items SET v = 'low' WHERE id <= 10`,
		`UPDATE items SET v = 'seven' WHERE id = 7`,
		`DELETE FROM items WHERE id > 35 AND id <= 40`,
		`DELETE FROM items WHERE id = 1`,
	} {
		if resp, body := query(t, c.Handler, "w", sql); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", sql, resp.StatusCode, body)
		}
	}
	want := tableDump(t, c.Shards[0], "items")
	for i, sh := range c.Shards {
		if n := shardCount(t, sh); n != 35 {
			t.Errorf("shard %d holds %d rows, want all 35", i, n)
		}
		if got := tableDump(t, sh, "items"); got != want {
			t.Errorf("shard %d diverged from shard 0:\n  %s\n  %s", i, got, want)
		}
	}
}

// TestDDLOrdersWithKeyedWrites: a DDL broadcast takes the scatter-write
// lock, so it lands at the same point of every partition's write order
// on every replica. Were DDL and keyed writes ordered by two locks that
// never see each other, a DROP/CREATE racing an INSERT would apply in
// different orders on different replicas: the row survives on one, is
// dropped with the old table on another, and the write's divergent
// answers quarantine a healthy shard. Run with -race.
func TestDDLOrdersWithKeyedWrites(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 3})
	h := c.Handler
	if resp, body := query(t, h, "ddl", `CREATE TABLE scratch (id INT PRIMARY KEY, v TEXT)`); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: HTTP %d: %s", resp.StatusCode, body)
	}
	const writers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				id := w*rounds + k
				for _, sql := range []string{
					fmt.Sprintf(`INSERT INTO scratch VALUES (%d, 'w%d')`, id, w),
					fmt.Sprintf(`UPDATE scratch SET v = 'u%d' WHERE id = %d`, w, id),
				} {
					// 200, or the engines' unanimous 400 while the table
					// is dropped; anything else is a router failure.
					resp, body := query(t, h, fmt.Sprintf("writer-%d", w), sql)
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
						t.Errorf("%s: HTTP %d: %s", sql, resp.StatusCode, body)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 8; k++ {
			for _, sql := range []string{
				`DROP TABLE scratch`,
				`CREATE TABLE scratch (id INT PRIMARY KEY, v TEXT)`,
				`CREATE INDEX scratch_v ON scratch (v)`,
			} {
				if resp, body := query(t, h, "ddl", sql); resp.StatusCode != http.StatusOK {
					t.Errorf("%s: HTTP %d: %s", sql, resp.StatusCode, body)
					return
				}
			}
		}
	}()
	wg.Wait()

	if hr := healthOf(t, h); hr.Status != "ok" {
		t.Fatalf("health = %q after the race (%+v): replicas answered one statement differently", hr.Status, hr.Peers)
	}
	if v := c.Router.writeDiverged.Value(); v != 0 {
		t.Errorf("cluster_write_diverged_total = %d, want 0", v)
	}
	want := tableDump(t, c.Shards[0], "scratch")
	for i, sh := range c.Shards[1:] {
		if got := tableDump(t, sh, "scratch"); got != want {
			t.Errorf("shard %d diverged from shard 0:\n  %s\n  %s", i+1, got, want)
		}
	}
}
