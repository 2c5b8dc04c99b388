package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/vclock"
)

// detectServer builds a 200-tuple front door with detection enabled:
// 30% grace, ×8 cap.
func detectServer(t *testing.T) (*httptest.Server, *core.Shield) {
	t.Helper()
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	stmt := "INSERT INTO items VALUES "
	for i := 1; i <= 200; i++ {
		if i > 1 {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, 'v%d')", i, i)
	}
	if _, err := db.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	shield, err := core.New(db, core.Config{
		N: 200, Alpha: 1, Beta: 1, Cap: time.Millisecond,
		Clock: vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
		Detect: &detect.Config{
			Policy: detect.EscalationPolicy{Grace: 0.30, Cap: 8},
		},
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
	return ts, shield
}

func TestAdminSuspects(t *testing.T) {
	ts, _ := detectServer(t)
	// Two coalition streams: disjoint 20% shards plus a shared 40%
	// sample (pairwise Jaccard 0.5), and one modest bystander.
	queries := map[string][]string{
		"s0": {
			`SELECT * FROM items WHERE id <= 40`,
			`SELECT * FROM items WHERE id > 100 AND id <= 180`,
		},
		"s1": {
			`SELECT * FROM items WHERE id > 40 AND id <= 80`,
			`SELECT * FROM items WHERE id > 100 AND id <= 180`,
		},
		"bystander": {`SELECT * FROM items WHERE id <= 10`},
	}
	for id, qs := range queries {
		c := NewClient(ts.URL, id)
		for _, q := range qs {
			if _, err := c.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/admin/suspects?k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SuspectsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled {
		t.Fatal("enabled = false with detection on")
	}
	if len(out.Suspects) != 2 {
		t.Fatalf("suspects = %+v, want the top 2", out.Suspects)
	}
	for _, s := range out.Suspects {
		if s.Principal != "s0" && s.Principal != "s1" {
			t.Fatalf("top suspect %q, want the coalition streams above the bystander", s.Principal)
		}
		if s.CoalitionSize != 2 {
			t.Errorf("%s coalition size %d, want 2", s.Principal, s.CoalitionSize)
		}
		// Union coverage 160/200 = 0.8 drives the multiplier to cap.
		if s.CoalitionCoverage < 0.7 || s.Multiplier != 8 {
			t.Errorf("%s: coalition coverage %.3f multiplier %v, want ≈0.8 and ×8", s.Principal, s.CoalitionCoverage, s.Multiplier)
		}
	}
	// Bad k is rejected.
	bad, err := http.Get(ts.URL + "/admin/suspects?k=0")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 status = %d", bad.StatusCode)
	}
}

func TestAdminSuspectsDetectionOff(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	resp, err := http.Get(ts.URL + "/admin/suspects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SuspectsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled || len(out.Suspects) != 0 {
		t.Fatalf("detection-off response = %+v", out)
	}
}

func TestMetricsDetectionGauges(t *testing.T) {
	ts, _ := detectServer(t)
	c := NewClient(ts.URL, "scanner")
	if _, err := c.Query(`SELECT * FROM items`); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v := m["shield_detect_tracked_principals"].(float64); v != 1 {
		t.Errorf("tracked principals = %v, want 1", v)
	}
	if v := m["shield_detect_sketch_bytes"].(float64); v <= 0 {
		t.Errorf("sketch bytes = %v, want > 0", v)
	}
	if v := m["shield_detect_max_coverage"].(float64); v < 0.8 {
		t.Errorf("max coverage = %v, want ≈1 after a full scan", v)
	}
	// The full scan escalated the scanner within its own query.
	if v := m["shield_detect_escalations_total"].(float64); v != 1 {
		t.Errorf("escalations = %v, want 1", v)
	}
	if _, ok := m["shield_detect_coalitions"]; !ok {
		t.Error("shield_detect_coalitions missing from export")
	}
}

func TestAdminQuoteErrorPaths(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Second})

	post := func(contentType, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/quote", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Empty id list.
	if resp := post("application/json", `{"ids":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ids status = %d, want 400", resp.StatusCode)
	}
	// Oversized id list.
	huge := `{"ids":[` + strings.TrimSuffix(strings.Repeat("1,", 10001), ",") + `]}`
	if resp := post("application/json", huge); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized ids status = %d, want 400", resp.StatusCode)
	}
	// Unknown tuple: the table holds ids 1..3 only.
	if resp := post("application/json", `{"ids":[1,99]}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tuple status = %d, want 404", resp.StatusCode)
	}
	// Content-type mismatch.
	if resp := post("text/plain", `{"ids":[1]}`); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("content-type status = %d, want 415", resp.StatusCode)
	}
	// Method mismatch.
	resp, err := http.Get(ts.URL + "/admin/quote")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestAdminTopKMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	resp, err := http.Post(ts.URL+"/admin/topk", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /admin/topk status = %d, want 405", resp.StatusCode)
	}
}
