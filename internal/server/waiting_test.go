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
	"repro/internal/vclock"
)

// TestWaitingQueryHoldsNoSnapshot measures what a SELECT parked in its
// delay holds, through the handler: narrow statements (a rejected point,
// and a range of core.NarrowCandidates candidates with a conjunct on v)
// and a wide one (a 1,000-row range). A statement runs before it waits,
// so UPDATEs to the pages it read, made while it waits, leave no
// snapshot version live; what it holds is its encoded reply, which
// pricing before execution would free for the narrow ones only.
func TestWaitingQueryHoldsNoSnapshot(t *testing.T) {
	clock := vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
	h, shield := testHandler(t, core.Config{N: 2000, Alpha: 1, Beta: 2, Cap: time.Second, Clock: clock})
	var load strings.Builder
	load.WriteString("INSERT INTO items VALUES ")
	for id := 4; id <= 2000; id++ {
		if id > 4 {
			load.WriteString(", ")
		}
		fmt.Fprintf(&load, "(%d, 'value-%06d')", id, id)
	}
	db := shield.DB()
	if _, err := db.Exec(load.String()); err != nil {
		t.Fatal(err)
	}
	clock.SetBlocking(true)

	narrowHi := 100 + core.NarrowCandidates
	statements := []struct {
		name, sql, update string
		rows              int
	}{
		{"narrow: rejected point", `SELECT * FROM items WHERE id = 7 AND v = 'x'`,
			`UPDATE items SET v = 'u' WHERE id = 7`, 0},
		{"narrow: 64-candidate range", fmt.Sprintf(`SELECT * FROM items WHERE id >= 100 AND id < %d AND v != 'x'`, narrowHi),
			`UPDATE items SET v = 'u' WHERE id = 120`, core.NarrowCandidates},
		{"wide: 1,000-row range", `SELECT * FROM items WHERE id >= 1000 AND id < 2000`,
			`UPDATE items SET v = 'u' WHERE id = 1500`, 1000},
	}
	recs := make([]*httptest.ResponseRecorder, len(statements))
	done := make(chan int)
	for i, st := range statements {
		recs[i] = httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(fmt.Sprintf(`{"sql":%q}`, st.sql)))
		req.Header.Set("X-Identity", fmt.Sprintf("reader-%d", i))
		go func() { h.ServeHTTP(recs[i], req); done <- i }()
	}
	for deadline := time.Now().Add(10 * time.Second); clock.Waiters() < len(statements); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d statements parked in their delay", clock.Waiters(), len(statements))
		}
		time.Sleep(time.Millisecond)
	}
	live := func() float64 { return shield.Metrics().Export()["engine_snapshot_versions_live"].(float64) }
	for _, st := range statements {
		if _, err := db.Exec(st.update); err != nil {
			t.Fatal(err)
		}
		if v := live(); v != 0 {
			t.Errorf("after %q under waiting readers: engine_snapshot_versions_live = %v, want 0", st.update, v)
		}
	}
	clock.Advance(time.Hour)
	for range statements {
		<-done
	}
	for i, st := range statements {
		rec := recs[i]
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", st.name, rec.Code, rec.Body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Rows) != st.rows {
			t.Errorf("%s: %d rows, want %d", st.name, len(qr.Rows), st.rows)
		}
		// The reply was encoded before the wait: it is what the
		// statement held while it waited, and it predates the UPDATE.
		for _, row := range qr.Rows {
			if row[1] == "u" {
				t.Errorf("%s: row %s reads the UPDATE made while it waited", st.name, row[0])
			}
		}
		t.Logf("%s: held a %d-byte reply (%d rows) through %.0f ms of delay", st.name, rec.Body.Len(), len(qr.Rows), qr.DelayMillis)
	}
	if v := live(); v != 0 {
		t.Errorf("engine_snapshot_versions_live = %v after the readers finished, want 0", v)
	}
}
