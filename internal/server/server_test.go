package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/vclock"
)

// testHandler is a shard over a three-row items table, not yet behind a
// socket.
func testHandler(t testing.TB, cfg core.Config, opts ...engine.Option) (http.Handler, *core.Shield) {
	t.Helper()
	db, err := engine.Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO items VALUES (1, 'one'), (2, 'two'), (3, 'three')`); err != nil {
		t.Fatal(err)
	}
	if cfg.N == 0 {
		cfg.N = 3
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
	}
	shield, err := core.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(shield)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), shield
}

func testServer(t *testing.T, cfg core.Config, opts ...engine.Option) (*httptest.Server, *core.Shield) {
	t.Helper()
	h, shield := testHandler(t, cfg, opts...)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, shield
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil shield accepted")
	}
}

func TestQueryEndToEnd(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	c := NewClient(ts.URL, "alice")
	resp, err := c.Query(`SELECT * FROM items WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][1] != "two" {
		t.Fatalf("rows = %v", resp.Rows)
	}
	if resp.Columns[0] != "id" {
		t.Fatalf("columns = %v", resp.Columns)
	}
	if resp.DelayMillis <= 0 {
		t.Fatalf("delay = %v", resp.DelayMillis)
	}
}

func TestQueryWriteStatement(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	c := NewClient(ts.URL, "writer")
	resp, err := c.Query(`UPDATE items SET v = 'neu' WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 1 || resp.DelayMillis != 0 {
		t.Fatalf("resp = %+v", resp)
	}
	// /stats "updates" counts the tuples UPDATE and DELETE affected; an
	// INSERT adds nothing to it.
	if _, err := c.Query(`INSERT INTO items VALUES (90, 'x'), (91, 'y')`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`DELETE FROM items WHERE id >= 90`); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 3 {
		t.Fatalf("/stats updates = %d after one UPDATE and a two-row DELETE, want 3", st.Updates)
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	c := NewClient(ts.URL, "x")
	if _, err := c.Query(`SELECT * FROM nope`); err == nil {
		t.Fatal("bad table accepted")
	}
	if _, err := c.Query(``); err == nil {
		t.Fatal("empty sql accepted")
	}
	// Raw malformed body.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Bytes after the object are an error here as at the router (a
	// json.Decoder used to stop at the closing brace and serve this).
	for _, body := range []string{
		`{"sql":"SELECT * FROM items WHERE id = 1"} trailing`,
		`{"sql":"SELECT * FROM items WHERE id = 1"}{"sql":"SELECT * FROM items WHERE id = 2"}`,
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestRateLimitedQueryReturns429(t *testing.T) {
	ts, _ := testServer(t, core.Config{
		Alpha: 1, Beta: 1, Cap: time.Millisecond,
		QueryRate: 0.0001, QueryBurst: 1,
	})
	c := NewClient(ts.URL, "greedy")
	if _, err := c.Query(`SELECT * FROM items WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	_, err := c.Query(`SELECT * FROM items WHERE id = 1`)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("second query err = %v", err)
	}
	// Another identity is fine.
	c2 := NewClient(ts.URL, "patient")
	if _, err := c2.Query(`SELECT * FROM items WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityFallsBackToRemoteAddr(t *testing.T) {
	ts, _ := testServer(t, core.Config{
		Alpha: 1, Beta: 1, Cap: time.Millisecond,
		QueryRate: 0.0001, QueryBurst: 1,
	})
	// No X-Identity header: identity = RemoteAddr, stable per connection
	// pair; two bare requests share the budget.
	body := `{"sql":"SELECT * FROM items WHERE id = 1"}`
	r1, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first = %d", r1.StatusCode)
	}
}

func TestRegisterEndpoint(t *testing.T) {
	ts, _ := testServer(t, core.Config{
		Alpha: 1, Beta: 1, Cap: time.Millisecond,
		RegistrationInterval: time.Hour,
	})
	c := NewClient(ts.URL, "newbie")
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(ts.URL, "newbie2")
	if err := c2.Register(); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("second registration err = %v", err)
	}
	// Malformed bodies.
	resp, _ := http.Post(ts.URL+"/register", "application/json", strings.NewReader("{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp2, _ := http.Post(ts.URL+"/register", "application/json", strings.NewReader("{}"))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty identity status = %d", resp2.StatusCode)
	}
	resp2.Body.Close()
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	c := NewClient(ts.URL, "s")
	c.Query(`SELECT * FROM items WHERE id = 1`)
	c.Query(`SELECT * FROM items WHERE id = 1`)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 2 || stats.DistinctIDs != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.Tables) != 1 || stats.Tables[0] != "items" {
		t.Fatalf("tables = %v", stats.Tables)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	// GET on /query must not match the POST route.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /query succeeded")
	}
}
