package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/vclock"
)

func TestMetricsEndpoint(t *testing.T) {
	ts, shield := testServer(t, core.Config{
		Alpha: 1, Beta: 1, Cap: time.Millisecond,
		QueryRate: 0.0001, QueryBurst: 1,
	})
	c := NewClient(ts.URL, "m")
	if _, err := c.Query(`SELECT * FROM items WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// Burn the budget so a rejection lands in the counters.
	c.Query(`SELECT * FROM items WHERE id = 1`)

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := m["shield_queries_served_total"].(float64); got != 1 {
		t.Fatalf("served = %v", got)
	}
	if got := m["shield_rate_limit_rejections_total"].(float64); got != 1 {
		t.Fatalf("rate limit rejections = %v", got)
	}
	if _, ok := m["shield_registration_rejections_total"]; !ok {
		t.Fatal("registration rejection counter missing")
	}
	hist, ok := m["shield_query_delay_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("delay histogram missing: %v", m)
	}
	buckets, ok := hist["buckets"].([]any)
	if !ok || len(buckets) == 0 {
		t.Fatalf("histogram has no buckets: %v", hist)
	}
	if hist["count"].(float64) != 1 {
		t.Fatalf("histogram count = %v", hist["count"])
	}
	// The +Inf bucket holds everything.
	last := buckets[len(buckets)-1].(map[string]any)
	if last["le"].(string) != "+Inf" || last["count"].(float64) != 1 {
		t.Fatalf("+Inf bucket = %v", last)
	}
	for _, key := range []string{"shield_tracker_size", "shield_tracker_ranked", "shield_tracker_horizon_resets_total"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("%s missing from /metrics", key)
		}
	}

	// The raw endpoint is JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if shield.Metrics() == nil {
		t.Fatal("shield metrics registry nil")
	}
}

// TestMetricsEnginePoolGauges checks the storage-layer instruments at
// /metrics: aggregate pool counters, the pin-balance gauge, per-table
// gauges for tables present at startup, and — via the scrape-time
// re-sync — per-table gauges for tables created after the server came up.
func TestMetricsEnginePoolGauges(t *testing.T) {
	ts, shield := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	c := NewClient(ts.URL, "pool")
	if _, err := c.Query(`SELECT * FROM items WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"engine_pool_hits", "engine_pool_misses", "engine_pool_evicts", "engine_pool_streamed",
		`engine_pool_hits{table="items"}`,
		`engine_pool_misses{table="items"}`,
		`engine_pool_evicts{table="items"}`,
		`engine_pool_streamed{table="items"}`,
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("%s missing from /metrics: %v", key, m)
		}
	}
	if got := m["engine_pool_pinned"].(float64); got != 0 {
		t.Fatalf("engine_pool_pinned = %v between statements", got)
	}
	// The warm table has been read at least once by the loader + query.
	h, _, _, err := shield.DB().TablePoolStats("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`engine_pool_hits{table="items"}`].(float64); int64(got) > h {
		t.Fatalf("exported hits %v exceed live hits %d", got, h)
	}

	// A table created after startup appears on the next scrape.
	if _, err := shield.DB().Exec(`CREATE TABLE late (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := shield.DB().Exec(`INSERT INTO late VALUES (1, 'x')`); err != nil {
		t.Fatal(err)
	}
	m, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m[`engine_pool_misses{table="late"}`]; !ok {
		t.Fatal("late-created table missing from /metrics after re-scrape")
	}
}

// TestMetricsWritePathGauges checks the concurrent write-path
// instruments at /metrics: per-page latch traffic, the group-commit WAL
// pipeline, and the snapshot version-chain gauges. The server's engine
// runs without a WAL here, so the wal_group_* gauges must be present but
// zero, while the latch counters reflect the writes the loader and this
// test issued.
func TestMetricsWritePathGauges(t *testing.T) {
	ts, shield := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	c := NewClient(ts.URL, "writes")
	if _, err := shield.DB().Exec(`UPDATE items SET v = 'uno' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"engine_write_latch_acquisitions", "engine_write_latch_waits",
		"engine_snapshot_versions_live", "engine_snapshot_retired_total",
		"wal_group_commits", "wal_group_batched_records",
		"wal_group_fsyncs", "wal_group_window_waits_seconds",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("%s missing from /metrics: %v", key, m)
		}
	}
	if got := m["engine_write_latch_acquisitions"].(float64); got <= 0 {
		t.Fatalf("engine_write_latch_acquisitions = %v after writes", got)
	}
	if got := m["wal_group_commits"].(float64); got != 0 {
		t.Fatalf("wal_group_commits = %v with the WAL disabled", got)
	}
}

// TestQueryDeadlineReturns504 wires a per-request deadline on a real
// clock: the cold query's multi-second quote blows the 30ms budget, the
// handler answers 504 promptly, and the attempt stays charged.
func TestQueryDeadlineReturns504(t *testing.T) {
	db, err := engine.Open(t.TempDir())
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
	shield, err := core.New(db, core.Config{N: 1, Alpha: 1, Beta: 1, Cap: 30 * time.Second, Clock: vclock.Real{}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(shield, WithQueryDeadline(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	start := time.Now()
	c := NewClient(ts.URL, "slow")
	_, qerr := c.Query(`SELECT * FROM items WHERE id = 1`)
	if qerr == nil || !strings.Contains(qerr.Error(), "504") {
		t.Fatalf("err = %v, want 504", qerr)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline response took %v", elapsed)
	}
	// Charged: the cancelled attempt recorded its observation and metric.
	if shield.Tracker().Count(1) != 1 {
		t.Fatal("deadline-cancelled query did not record its observation")
	}
	if got := shield.Metrics().Counter("shield_queries_cancelled_total").Value(); got != 1 {
		t.Fatalf("cancelled metric = %d", got)
	}
}
