package delaydefense

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/vclock"
)

// TestPrincipalDelaysAdd: one principal's concurrent queries wait one
// after another. It sends 64 point reads of cold tuples at once, through
// the facade and through the server handler, on a blocking simulated
// clock, and its last reply must leave no earlier than the sum of the
// delays it was billed after the first request — the paper's premise
// that an extractor's time is the sum of its delays (§2.4).
func TestPrincipalDelaysAdd(t *testing.T) {
	const reads = 64
	paths := map[string]func(db *DB) func(id int) (time.Duration, error){
		"facade": func(db *DB) func(int) (time.Duration, error) {
			return func(id int) (time.Duration, error) {
				_, qs, err := db.Query("robot", fmt.Sprintf("SELECT * FROM items WHERE id = %d", id))
				return qs.Delay, err
			}
		},
		"handler": func(db *DB) func(int) (time.Duration, error) {
			h, err := db.Handler()
			if err != nil {
				t.Fatal(err)
			}
			return func(id int) (time.Duration, error) {
				body := fmt.Sprintf(`{"sql":"SELECT * FROM items WHERE id = %d"}`, id)
				req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
				req.Header.Set("X-Identity", "robot")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					return 0, fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body)
				}
				var out struct {
					DelayMillis float64 `json:"delay_millis"`
				}
				err := json.Unmarshal(rec.Body.Bytes(), &out)
				return time.Duration(out.DelayMillis * float64(time.Millisecond)), err
			}
		},
	}
	for name, path := range paths {
		t.Run(name, func(t *testing.T) {
			clk, db := coldItems(t, reads)
			read := path(db)

			first := clk.Now()
			var (
				mu     sync.Mutex
				billed time.Duration
				last   time.Time
				wg     sync.WaitGroup
			)
			errs := make(chan error, reads)
			for id := 1; id <= reads; id++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d, err := read(id)
					if err != nil {
						errs <- err
						return
					}
					left := clk.Now()
					mu.Lock()
					billed += d
					if left.After(last) {
						last = left
					}
					mu.Unlock()
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			// Let every read park on the clock, then move time on one cap
			// at a time until the last reply has left.
			deadline := time.Now().Add(10 * time.Second)
			for parked, running := false, true; running; {
				select {
				case <-done:
					running = false
				default:
					if time.Now().After(deadline) {
						t.Fatalf("replies stuck: %d reads parked", clk.Waiters())
					}
					if parked = parked || clk.Waiters()+len(errs) == reads; parked && clk.Waiters() > 0 {
						clk.Advance(time.Second)
					} else {
						time.Sleep(time.Millisecond)
					}
				}
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if billed != reads*time.Second {
				t.Fatalf("billed %v for %d cold reads at a 1 s cap", billed, reads)
			}
			if took := last.Sub(first); took < billed {
				t.Fatalf("the last reply left %v after the first request, under the %v billed", took, billed)
			}
		})
	}
}

// coldItems opens a database on a blocking simulated clock whose items
// table holds rows 1..rows, nothing learned: every read is priced at the
// 1 s cap.
func coldItems(t *testing.T, rows int) (*vclock.Simulated, *DB) {
	t.Helper()
	clk := vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
	clk.SetBlocking(true)
	db := openTestDB(t, Config{N: 1000, Alpha: 1, Beta: 2, Cap: time.Second, Clock: clk})
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO items VALUES ")
	for i := 1; i <= rows; i++ {
		if i > 1 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, 'v%d')", i, i)
	}
	if _, err := db.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}
	return clk, db
}

// TestPrincipalBusyIs429: with delay.PrincipalWaitCap of its reads
// waiting, a principal's next SELECT is answered 429 and charged
// nothing: it was refused before it ran.
func TestPrincipalBusyIs429(t *testing.T) {
	clk, db := coldItems(t, delay.PrincipalWaitCap+1)
	h, err := db.Handler()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 1; id <= delay.PrincipalWaitCap; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := db.Query("robot", fmt.Sprintf("SELECT * FROM items WHERE id = %d", id)); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); clk.Waiters() < delay.PrincipalWaitCap; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d reads parked", clk.Waiters(), delay.PrincipalWaitCap)
		}
	}
	charged := db.Metrics().Counter("shield_tuples_charged_total").Value()
	req := httptest.NewRequest("POST", "/query", strings.NewReader(fmt.Sprintf(`{"sql":"SELECT * FROM items WHERE id = %d"}`, delay.PrincipalWaitCap+1)))
	req.Header.Set("X-Identity", "robot")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 429 || !strings.Contains(rec.Body.String(), "too many queries waiting") {
		t.Errorf("read past the cap: HTTP %d %s, want 429", rec.Code, rec.Body)
	}
	if got := db.Metrics().Counter("shield_tuples_charged_total").Value(); got != charged {
		t.Errorf("the refused read was charged: %d tuples, then %d", charged, got)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			clk.Advance(time.Second)
			time.Sleep(time.Millisecond)
		}
	}
}
