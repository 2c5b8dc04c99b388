package cluster

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/vclock"
)

// doorShard is a shard whose only writers are "writer" and the router's
// own identity, metering each principal at rate queries/second with a
// burst of 1 (none when rate is 0).
func doorShard(t *testing.T, rate float64, clock vclock.Clock) http.Handler {
	t.Helper()
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO items VALUES (1, 'v1')`); err != nil {
		t.Fatal(err)
	}
	shield, err := core.New(db, core.Config{
		N: 10, Alpha: 1, Beta: 1, Cap: time.Millisecond, Clock: clock,
		QueryRate: rate, QueryBurst: 1,
		Writers: map[string]bool{"writer": true, InitIdentity: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(shield)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// TestDoorParity: a node's handler and a one-shard router read, decode,
// admit and refuse a client's /query alike — the same status, and a
// Retry-After on the same answers.
func TestDoorParity(t *testing.T) {
	clock := vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
	node := doorShard(t, 1, clock)
	r, err := NewRouter([]*Node{localNode(t, "shard-0", doorShard(t, 0, clock))},
		Config{AdmitRate: 1, AdmitBurst: 1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	router := r.Handler()

	const point = `{"sql":"SELECT v FROM items WHERE id = 1"}`
	huge := `{"sql":"` + strings.Repeat("x", server.MaxBodyBytes) + `"}`
	for _, c := range []struct {
		name, identity, contentType, body string
		sends                             int // the last answer is compared
		want                              int
	}{
		{"wrong content type", "a", "text/plain", point, 1, http.StatusUnsupportedMediaType},
		{"json with parameters", "b", "application/json; charset=utf-8", point, 1, http.StatusOK},
		{"body over MaxBodyBytes", "c", "application/json", huge, 1, http.StatusRequestEntityTooLarge},
		{"malformed json", "d", "application/json", `{"sql":`, 1, http.StatusBadRequest},
		{"empty sql", "e", "application/json", `{"sql":""}`, 1, http.StatusBadRequest},
		{"rate-limited principal", "f", "application/json", point, 2, http.StatusTooManyRequests},
		{"non-writer's update", "g", "application/json", `{"sql":"UPDATE items SET v = 'w' WHERE id = 1"}`, 1, http.StatusForbidden},
	} {
		t.Run(c.name, func(t *testing.T) {
			var answers [2]*httptest.ResponseRecorder
			for i, h := range []http.Handler{node, router} {
				for range c.sends {
					req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(c.body))
					req.Header.Set("Content-Type", c.contentType)
					req.Header.Set("X-Identity", c.identity)
					answers[i] = httptest.NewRecorder()
					h.ServeHTTP(answers[i], req)
				}
			}
			for i, door := range []string{"node", "router"} {
				rec := answers[i]
				if rec.Code != c.want {
					t.Errorf("%s: HTTP %d (%.200s), want %d", door, rec.Code, rec.Body, c.want)
				}
				retry := rec.Header().Get("Retry-After")
				if c.want != http.StatusTooManyRequests {
					if retry != "" {
						t.Errorf("%s: HTTP %d carries Retry-After %q", door, rec.Code, retry)
					}
				} else if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
					t.Errorf("%s: 429 with Retry-After %q, want at least 1", door, retry)
				}
			}
		})
	}
}
