package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// TestPanicRecoveryMiddleware: a panicking handler yields a 500 and a
// bumped server_panics_total, and the server keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	mux.HandleFunc("/fine", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	reg := metrics.NewRegistry()
	panics := reg.Counter("server_panics_total")
	ts := httptest.NewServer(WithRecovery(mux, panics))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: HTTP %d, want 500", resp.StatusCode)
	}
	if got := panics.Value(); got != 1 {
		t.Fatalf("server_panics_total = %d, want 1", got)
	}
	// The process survived; the next request is served normally.
	resp, err = http.Get(ts.URL + "/fine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestDegradedModeEndToEnd walks the whole degradation path: an injected
// storage write failure flips the shield degraded, writes come back 503,
// reads (delays included) keep flowing, /healthz names the cause, and
// ClearDegraded restores write service.
func TestDegradedModeEndToEnd(t *testing.T) {
	ts, shield := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond}, engine.WithWAL(false))
	c := NewClient(ts.URL, "alice")

	// One-shot write failure at the log: the INSERT's commit dies as if
	// the disk did. (A page allocation writes nothing; the pager's first
	// write of a page is its eviction or a checkpoint.)
	fault.Enable(fault.NewRegistry(1).Add(fault.Rule{
		Site: fault.WALAppend, Kind: fault.Error, Count: 1,
	}))
	defer fault.Disable()
	pad := strings.Repeat("x", 64)
	var tripped bool
	for i := 10; i < 200; i++ {
		sql := "INSERT INTO items VALUES (" + strconv.Itoa(i) + ", '" + pad + "')"
		if _, err := c.Query(sql); err != nil {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("injected pager fault never surfaced through INSERT")
	}
	if on, cause := shield.Degraded(); !on || cause == "" {
		t.Fatalf("shield not degraded after storage failure (on=%v cause=%q)", on, cause)
	}

	// Writes refused with 503 + ErrDegraded in the body.
	_, err := c.Query(`INSERT INTO items VALUES (9999, 'rejected')`)
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("write while degraded: err = %v, want HTTP 503", err)
	}
	if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("503 body does not mention degraded mode: %v", err)
	}

	// Reads still served, still priced.
	resp, err := c.Query(`SELECT * FROM items WHERE id = 1`)
	if err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if len(resp.Rows) != 1 {
		t.Fatalf("read while degraded returned %d rows", len(resp.Rows))
	}

	// /healthz reports degraded with the cause; the process stays 200.
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Reason == "" {
		t.Fatalf("healthz = %+v, want degraded with a reason", h)
	}

	// Metrics: gauge up, at least one rejection counted.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := m["shield_degraded"].(float64); g != 1 {
		t.Fatalf("shield_degraded gauge = %v, want 1", m["shield_degraded"])
	}

	// Operator clears; writes flow again and health returns to ok.
	shield.ClearDegraded()
	if _, err := c.Query(`INSERT INTO items VALUES (9999, 'accepted')`); err != nil {
		t.Fatalf("write after ClearDegraded: %v", err)
	}
	h, err = c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz after clear = %+v, want ok", h)
	}
}

// TestDegradedNotTrippedByRequestErrors: user-shaped failures (bad SQL,
// duplicate key) must not flip the shield into degraded mode.
func TestDegradedNotTrippedByRequestErrors(t *testing.T) {
	ts, shield := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	c := NewClient(ts.URL, "alice")
	if _, err := c.Query(`SELECT * FROM nonexistent`); err == nil {
		t.Fatal("query of missing table succeeded")
	}
	if _, err := c.Query(`INSERT INTO items VALUES (1, 'dup')`); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if on, _ := shield.Degraded(); on {
		t.Fatal("request errors flipped the shield degraded")
	}
}

// TestClientNeverRetriesQuery: POST /query is a charged, delay-priced
// statement; a connection error or 5xx must NOT trigger a resend.
func TestClientNeverRetriesQuery(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, "alice")
	if _, err := c.Query(`SELECT * FROM items`); err == nil {
		t.Fatal("query against failing server succeeded")
	}
	if err := c.Register(); err == nil {
		t.Fatal("register against failing server succeeded")
	}
	if got := calls.Load(); got != 2 { // one per POST, zero retries
		t.Fatalf("server saw %d calls, want exactly 2 (no POST retries)", got)
	}
}

// TestDegradedModeGroupFlushFault: an injected I/O failure in the WAL
// group leader's flush — after the coalesced batch hits the file, before
// the fsync — must surface through the write statement wrapping
// storage.ErrIO and latch the shield degraded, exactly like any other
// storage failure. Reads keep flowing; ClearDegraded restores writes.
func TestDegradedModeGroupFlushFault(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO items VALUES (1, 'one')`); err != nil {
		t.Fatal(err)
	}
	shield, err := core.New(db, core.Config{
		Alpha: 1, Beta: 1, Cap: time.Millisecond, N: 3,
		Clock: vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(shield)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "alice")

	fault.Enable(fault.NewRegistry(7).Add(fault.Rule{
		Site: fault.WALGroupFlush, Kind: fault.Error, Count: 1,
	}))
	defer fault.Disable()

	if _, err := c.Query(`INSERT INTO items VALUES (2, 'two')`); err == nil {
		t.Fatal("INSERT succeeded despite injected group-flush fault")
	}
	if on, cause := shield.Degraded(); !on || cause == "" {
		t.Fatalf("shield not degraded after group-flush failure (on=%v cause=%q)", on, cause)
	}
	if _, err := c.Query(`SELECT * FROM items WHERE id = 1`); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	shield.ClearDegraded()
	if _, err := c.Query(`INSERT INTO items VALUES (3, 'three')`); err != nil {
		t.Fatalf("write after ClearDegraded: %v", err)
	}
}

// padded is prefix, n bytes of 'a', suffix — a body of any size that the
// test never holds in memory.
func padded(prefix string, n int64, suffix string) io.Reader {
	return io.MultiReader(strings.NewReader(prefix), io.LimitReader(fill('a'), n), strings.NewReader(suffix))
}

type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestOversizedBodiesAreRefused: a body past MaxBodyBytes is answered 413
// with the usual error object instead of being buffered whole — one
// endless "sql" string used to cost the heap its length — while a large
// body inside the bound, and /admin/sketches up to its own larger one,
// are still served.
func TestOversizedBodiesAreRefused(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	post := func(path string, body io.Reader) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Identity", "mallory")
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, req)
		return rec
	}
	const over = MaxBodyBytes + 1<<20
	for path, body := range map[string]io.Reader{
		"/query":         padded(`{"sql":"`, over, `"}`),
		"/register":      padded(`{"identity":"`, over, `"}`),
		"/admin/quote":   padded(`{"ids":[1],"pad":"`, over, `"}`),
		"/admin/migrate": padded(`{"op":"`, over, `"}`),
	} {
		rec := post(path, body)
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusRequestEntityTooLarge || err != nil || er.Error == "" ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s with %d bytes: HTTP %d, body %.80q, decode %v; want 413 and an error object", path, int64(over), rec.Code, rec.Body, err)
		}
	}
	if rec := post("/query", padded(`{"sql":"SELECT * FROM items WHERE id = 1","pad":"`, MaxBodyBytes-1<<20, `"}`)); rec.Code != http.StatusOK {
		t.Errorf("/query inside the bound: HTTP %d, body %.80q", rec.Code, rec.Body)
	}
	if rec := post("/admin/sketches", padded(`{"sketches":[],"pad":"`, over, `"}`)); rec.Code != http.StatusOK {
		t.Errorf("/admin/sketches past MaxBodyBytes but inside its own bound: HTTP %d, body %.80q", rec.Code, rec.Body)
	}
}
