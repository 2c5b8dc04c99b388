package delaydefense

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// TestWriteIsNotAFreeOracle: a predicate UPDATE reports whether its
// predicate matched, and a write is not charged, so whoever may write
// reads every value by binary search for free — 16 statements of
// `UPDATE items SET w = 1 WHERE id = i AND v > mid` recover a 16-bit v.
// Config.Writers makes writing a role: a non-writer's probe is refused
// before it runs, through the facade, one shard's handler and the
// router, so it recovers no value and changes no row. A writer still
// writes, and through the router every replica applies it and none is
// latched out.
func TestWriteIsNotAFreeOracle(t *testing.T) {
	const tuples = 1000
	rng := rand.New(rand.NewPCG(48, 1))
	values := make([]int, tuples)
	rows := make([]string, tuples)
	for i := range values {
		values[i] = rng.IntN(1 << 16)
		rows[i] = fmt.Sprintf("(%d, %d, 0)", i, values[i])
	}
	schema := "CREATE TABLE items (id INT PRIMARY KEY, v INT, w INT);\nINSERT INTO items VALUES " + strings.Join(rows, ", ")
	cfg := Config{N: tuples, Alpha: 1, Beta: 2, Cap: 10 * time.Second,
		Writers: map[string]bool{"writer": true, cluster.InitIdentity: true}}

	// extract binary-searches the first n values through probe, which
	// returns the rows a statement changed; a refused probe ends that
	// tuple's search. It returns how many values it recovered.
	extract := func(n int, probe func(sql string) (int, error)) (recovered int) {
		for i, v := range values[:n] {
			lo, hi := 0, 1<<16-1
			for lo < hi {
				mid := (lo + hi) / 2
				affected, err := probe(fmt.Sprintf("UPDATE items SET w = 1 WHERE id = %d AND v > %d", i, mid))
				if err != nil {
					break
				}
				if affected > 0 {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == hi && lo == v {
				recovered++
			}
		}
		return recovered
	}
	// marked counts the rows a probe has written.
	marked := func(t *testing.T, db *DB) int64 {
		t.Helper()
		res, err := db.Exec("SELECT COUNT(*) FROM items WHERE w = 1")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int
	}
	// post sends sql to h's /query as identity and returns the reply's
	// affected count, or an error naming any status but 200.
	post := func(h http.Handler, identity, sql string) (int, error) {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Identity", identity)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
		var qr server.QueryResponse
		err := json.Unmarshal(rec.Body.Bytes(), &qr)
		return qr.Affected, err
	}
	// refused requires every one of a non-writer's probes to fail as
	// want says, and so recover nothing.
	refused := func(t *testing.T, probe func(sql string) (int, error), want func(error) bool) {
		t.Helper()
		var first error
		got := extract(tuples, func(sql string) (int, error) {
			n, err := probe(sql)
			if first == nil {
				first = err
			}
			return n, err
		})
		if got != 0 || !want(first) {
			t.Fatalf("a non-writer recovered %d of %d values (first refusal: %v)", got, tuples, first)
		}
	}
	open := func(t *testing.T) *DB {
		db := openTestDB(t, cfg)
		if _, err := db.ExecScript(schema); err != nil {
			t.Fatal(err)
		}
		return db
	}

	t.Run("facade", func(t *testing.T) {
		db := open(t)
		refused(t, func(sql string) (int, error) {
			res, _, err := db.Query("mallory", sql)
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		}, func(err error) bool { return errors.Is(err, ErrNotWriter) })
		if n := marked(t, db); n != 0 {
			t.Fatalf("a non-writer's probes marked %d rows", n)
		}
		writer := func(sql string) (int, error) {
			res, _, err := db.Query("writer", sql)
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		}
		if got := extract(10, writer); got != 10 {
			t.Fatalf("a writer's probes recovered %d of 10 values", got)
		}
	})

	t.Run("handler", func(t *testing.T) {
		db := open(t)
		h, err := db.Handler()
		if err != nil {
			t.Fatal(err)
		}
		refused(t, func(sql string) (int, error) { return post(h, "mallory", sql) },
			func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "HTTP 403") })
		if n := marked(t, db); n != 0 {
			t.Fatalf("a non-writer's probes marked %d rows", n)
		}
		if n, err := post(h, "writer", "UPDATE items SET w = 1 WHERE id = 7"); err != nil || n != 1 {
			t.Fatalf("a writer's UPDATE changed %d rows: %v", n, err)
		}
	})

	t.Run("router", func(t *testing.T) {
		var (
			dbs   []*DB
			nodes []*cluster.Node
		)
		for i := range 2 {
			db := openTestDB(t, cfg)
			h, err := db.Handler()
			if err != nil {
				t.Fatal(err)
			}
			dbs = append(dbs, db)
			node := cluster.NewLocalNode(fmt.Sprintf("shard-%d", i), h)
			t.Cleanup(func() { node.Close() }) // before openTestDB's Close
			nodes = append(nodes, node)
		}
		// Full replication: every write reaches both shards.
		rt, err := cluster.NewRouter(nodes, cluster.Config{AdmitRate: 1e9, AdmitBurst: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.ExecScript(schema); err != nil {
			t.Fatal(err)
		}
		h := rt.Handler()
		refused(t, func(sql string) (int, error) { return post(h, "mallory", sql) },
			func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "HTTP 403") })
		if _, err := post(h, cluster.InitIdentity, "UPDATE items SET w = 1 WHERE id = 7"); err == nil || !strings.HasPrefix(err.Error(), "HTTP 403") {
			t.Fatalf("a client claiming the router's identity wrote: %v", err)
		}
		for i, db := range dbs {
			if n := marked(t, db); n != 0 {
				t.Fatalf("shard %d: a non-writer's probes marked %d rows", i, n)
			}
		}
		if n, err := post(h, "writer", "UPDATE items SET w = 1 WHERE id = 7"); err != nil || n != 1 {
			t.Fatalf("a writer's UPDATE changed %d rows: %v", n, err)
		}
		for i, db := range dbs {
			if n := marked(t, db); n != 1 {
				t.Fatalf("shard %d holds %d marked rows after the writer's UPDATE, want 1", i, n)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var health cluster.HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil || health.Status != "ok" {
			t.Fatalf("router health after the refusals: %q (%v), want every peer ok", health.Status, err)
		}
	})
}
