package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parthash"
)

func postMigrate(t *testing.T, url string, req MigrateRequest) (*http.Response, MigrateResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/admin/migrate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out MigrateResponse
	json.Unmarshal(raw, &out)
	return resp, out, string(raw)
}

// TestMigrateOpsRoundTrip drives the data plane the cluster migrator
// rides: pull a partition slice from one shard, push it into a fresh
// one, purge it from the source — and verify the tuples moved and the
// pages cursor correctly.
func TestMigrateOpsRoundTrip(t *testing.T) {
	src, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	dst, dstShield := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	// Empty the destination so applied counts are unambiguous.
	if _, err := dstShield.DB().Exec(`DELETE FROM items WHERE id > 0`); err != nil {
		t.Fatal(err)
	}

	const parts = 4
	wantPart := parthash.Index(1, parts) // partition of key 1; keys 2,3 may share it
	filter := &PartitionFilter{Count: parts, Include: []int{wantPart}}
	var wantKeys []int64
	for k := int64(1); k <= 3; k++ {
		if parthash.Index(k, parts) == wantPart {
			wantKeys = append(wantKeys, k)
		}
	}

	// Pull the slice (single page: table has 3 rows).
	resp, pull, raw := postMigrate(t, src.URL, MigrateRequest{
		Op: "pull", Table: "items", Filter: filter,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull: HTTP %d: %s", resp.StatusCode, raw)
	}
	if !pull.Done || len(pull.Keys) != len(wantKeys) {
		t.Fatalf("pull page = %+v, want done with keys %v", pull, wantKeys)
	}
	for i, k := range pull.Keys {
		if k != wantKeys[i] {
			t.Fatalf("pull keys = %v, want %v", pull.Keys, wantKeys)
		}
	}
	// The page holds wanted rows only, so the cursor is the last key it
	// returned.
	if last := wantKeys[len(wantKeys)-1]; pull.Next != last {
		t.Fatalf("pull cursor = %d, want %d (last key returned)", pull.Next, last)
	}

	// Push into the destination; idempotent, so a retried page is safe.
	for i := 0; i < 2; i++ {
		resp, push, raw := postMigrate(t, dst.URL, MigrateRequest{
			Op: "push", Table: "items", Rows: pull.Rows,
		})
		if resp.StatusCode != http.StatusOK || push.Applied != len(wantKeys) {
			t.Fatalf("push attempt %d: HTTP %d, applied %d, want %d: %s",
				i, resp.StatusCode, push.Applied, len(wantKeys), raw)
		}
	}

	// Purge the slice from the source.
	resp, purge, raw := postMigrate(t, src.URL, MigrateRequest{
		Op: "purge", Table: "items", Filter: filter,
	})
	if resp.StatusCode != http.StatusOK || !purge.Done || purge.Applied != len(wantKeys) {
		t.Fatalf("purge = %+v (HTTP %d), want done with %d deleted: %s",
			purge, resp.StatusCode, len(wantKeys), raw)
	}

	// Count on each side confirms the move.
	_, cSrc, _ := postMigrate(t, src.URL, MigrateRequest{
		Op: "count", Table: "items", Filter: filter, SQL: `SELECT * FROM items`,
	})
	_, cDst, _ := postMigrate(t, dst.URL, MigrateRequest{
		Op: "count", Table: "items", Filter: filter, SQL: `SELECT * FROM items`,
	})
	if cSrc.Count != 0 || cDst.Count != len(wantKeys) {
		t.Fatalf("post-move counts: src=%d dst=%d, want 0 and %d", cSrc.Count, cDst.Count, len(wantKeys))
	}
}

func TestMigrateRejectsBadRequests(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	bad := []MigrateRequest{
		{Op: "explode"},
		{Op: "pull", Table: "items"}, // no filter
		{Op: "pull", Table: "nope", Filter: &PartitionFilter{Count: 2, Include: []int{0}}},   // unknown table
		{Op: "count", Table: "items", Filter: &PartitionFilter{Count: 2, Include: []int{0}}}, // no sql
		{Op: "push", Table: "items", Rows: [][]string{{"1"}}},                                // wrong arity
	}
	for i, req := range bad {
		resp, _, raw := postMigrate(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad migrate %d: HTTP %d, want 400: %s", i, resp.StatusCode, raw)
		}
	}
}

// malformedFilter is the fuzz oracle's own reading of a filter no
// partition map could have produced.
func malformedFilter(f *PartitionFilter) bool {
	if f.Count <= 0 || len(f.Include) == 0 {
		return true
	}
	for _, p := range f.Include {
		if p < 0 || p >= f.Count {
			return true
		}
	}
	return false
}

// FuzzMigrateRequest throws arbitrary bodies at the two endpoints that
// take a partition filter. Whatever arrives, the shard answers 200 or
// 400 — never a panic (the recovery middleware would make it a 500) —
// and a filter that is missing where required, empty or out of range is
// always a 400, never the full table. A pull that is answered holds
// rows of the filter's partitions only, in key order past the cursor.
func FuzzMigrateRequest(f *testing.F) {
	for _, seed := range []struct {
		query bool
		body  string
	}{
		{false, `{"op":"pull","table":"items","filter":{"count":4,"include":[0,1,2,3]}}`},
		{false, `{"op":"pull","table":"items","filter":{"count":2,"include":[1]},"after":1,"limit":1}`},
		{false, `{"op":"pull","table":"items","filter":{"count":2,"include":[1]},"after":-9223372036854775808,"limit":100000}`},
		{false, `{"op":"pull","table":"items"}`},
		{false, `{"op":"pull","table":"nope","filter":{"count":2,"include":[0]}}`},
		{false, `{"op":"pull","table":"items","filter":{"count":0,"include":[0]}}`},
		{false, `{"op":"pull","table":"items","filter":{"count":4,"include":[]}}`},
		{false, `{"op":"pull","table":"items","filter":{"count":4,"include":[4]}}`},
		{false, `{"op":"pull","table":"items","filter":{"count":4611686018427387904,"include":[4611686018427387903]}}`},
		{false, `{"op":"purge","table":"items","filter":{"count":4,"include":[-1]}}`},
		{false, `{"op":"purge","table":"items","filter":{"count":3,"include":[2,2,0]},"limit":2}`},
		{false, `{"op":"push","table":"items","rows":[["7","seven"],["1","uno"]]}`},
		{false, `{"op":"push","table":"items","rows":[["x","seven"]]}`},
		{false, `{"op":"push","table":"items","rows":[["7"]]}`},
		{false, `{"op":"count","filter":{"count":2,"include":[0]},"sql":"SELECT id FROM items WHERE id > 1"}`},
		{false, `{"op":"count","filter":{"count":2,"include":[0]},"sql":"DELETE FROM items"}`},
		{false, `{"op":"count","filter":{"count":2,"include":[0]},"sql":"SELECT"}`},
		{false, `{"op":"count","filter":{"count":2,"include":[2]},"sql":"SELECT id FROM items"}`},
		{false, `{"op":"count","sql":"SELECT id FROM items"}`},
		{false, `{"op":"explode"}`},
		{false, `{"op":"pull","filter":null} trailing`},
		{false, `[]`},
		{false, ``},
		{true, `{"sql":"SELECT * FROM items","pfilter":{"count":4,"include":[1,3]}}`},
		{true, `{"sql":"SELECT COUNT(*), MIN(v) FROM items LIMIT 0","pfilter":{"count":1,"include":[0]}}`},
		{true, `{"sql":"SELECT v FROM items ORDER BY v DESC LIMIT 2","pfilter":{"count":2,"include":[0]}}`},
		{true, `{"sql":"SELECT * FROM items","pfilter":{"count":4,"include":[]}}`},
		{true, `{"sql":"SELECT * FROM items","pfilter":{"count":4,"include":[7]}}`},
		{true, `{"sql":"SELECT * FROM items","pfilter":{"count":-4,"include":[-1]}}`},
		{true, `{"sql":"SELECT * FROM items","pfilter":{"include":[1],"count":0}}`},
		{true, `{"sql":"DELETE FROM items","pfilter":{"count":1,"include":[0]}}`},
		{true, `{"sql":"EXPLAIN SELECT * FROM items","pfilter":{"count":1,"include":[0]}}`},
		{true, `{"sql":"INSERT INTO items VALUES (9, 'nine')","pfilter":{"count":1,"include":[0]}}`},
		{true, `{"sql":"","pfilter":{"count":1,"include":[0]}}`},
	} {
		f.Add(seed.query, []byte(seed.body))
	}
	h, _ := testHandler(f, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Identity", "fuzz")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	f.Fuzz(func(t *testing.T, query bool, body []byte) {
		if query {
			w := post("/query", body)
			if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
				t.Fatalf("/query %q: HTTP %d: %s", body, w.Code, w.Body)
			}
			req, err := ParseQueryRequest(body)
			if err == nil && req.PFilter != nil && malformedFilter(req.PFilter) && w.Code != http.StatusBadRequest {
				t.Fatalf("/query %q: malformed filter answered HTTP %d: %s", body, w.Code, w.Body)
			}
			return
		}
		w := post("/admin/migrate", body)
		if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
			t.Fatalf("/admin/migrate %q: HTTP %d: %s", body, w.Code, w.Body)
		}
		var req MigrateRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		if req.Op != "pull" && req.Op != "purge" && req.Op != "count" {
			return
		}
		if req.Filter == nil || malformedFilter(req.Filter) {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("/admin/migrate %q: filter %+v answered HTTP %d: %s", body, req.Filter, w.Code, w.Body)
			}
			return
		}
		if req.Op != "pull" || w.Code != http.StatusOK {
			return
		}
		var page MigrateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			t.Fatalf("/admin/migrate %q: reply %q: %v", body, w.Body, err)
		}
		if len(page.Keys) != len(page.Rows) || len(page.Keys) > migratePageLimit {
			t.Fatalf("/admin/migrate %q: %d keys, %d rows", body, len(page.Keys), len(page.Rows))
		}
		last := req.After
		for _, k := range page.Keys {
			if k <= last || !slices.Contains(req.Filter.Include, parthash.Index(k, req.Filter.Count)) {
				t.Fatalf("/admin/migrate %q: key %d after %d in page %v", body, k, last, page.Keys)
			}
			last = k
		}
		if page.Next != last {
			t.Fatalf("/admin/migrate %q: next %d, last key %d", body, page.Next, last)
		}
	})
}
