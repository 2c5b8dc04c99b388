package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/vclock"
)

func testDB(t *testing.T, n int) *engine.Database {
	t.Helper()
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, payload TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 500 {
		stmt := "INSERT INTO items VALUES "
		for j := i; j < i+500 && j < n; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'payload-%d')", j, j)
		}
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func simClock() *vclock.Simulated {
	return vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
}

func TestNewValidation(t *testing.T) {
	db := testDB(t, 10)
	if _, err := New(nil, Config{N: 10}); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := New(db, Config{}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(db, Config{N: 10, DecayRate: 0.5}); err == nil {
		t.Fatal("bad decay accepted")
	}
	if _, err := New(db, Config{N: 10, Kind: PolicyKind(9)}); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestColdQueriesPayCapThenLearn(t *testing.T) {
	db := testDB(t, 100)
	clk := simClock()
	cap := 10 * time.Second
	s, err := New(db, Config{N: 100, Alpha: 1, Beta: 2, Cap: cap, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	// First query: nothing learned ⇒ the cap.
	_, stats, err := s.Query("alice", `SELECT * FROM items WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delay != cap || stats.Tuples != 1 {
		t.Fatalf("cold stats = %+v", stats)
	}
	if clk.Slept() != cap {
		t.Fatalf("slept %v", clk.Slept())
	}
	// Hammer tuple 5; its delay must collapse.
	for i := 0; i < 200; i++ {
		s.Query("alice", `SELECT * FROM items WHERE id = 5`)
	}
	_, stats, _ = s.Query("alice", `SELECT * FROM items WHERE id = 5`)
	if stats.Delay >= cap/100 {
		t.Fatalf("hot tuple still slow: %v", stats.Delay)
	}
	// A cold tuple still pays the cap.
	_, stats, _ = s.Query("alice", `SELECT * FROM items WHERE id = 99`)
	if stats.Delay != cap {
		t.Fatalf("cold tuple delay = %v", stats.Delay)
	}
}

func TestMultiTupleQueryChargesSum(t *testing.T) {
	db := testDB(t, 50)
	clk := simClock()
	cap := time.Second
	s, _ := New(db, Config{N: 50, Alpha: 1, Beta: 1, Cap: cap, Clock: clk})
	_, stats, err := s.Query("bob", `SELECT * FROM items WHERE id >= 0 AND id <= 9`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != 10 {
		t.Fatalf("tuples = %d", stats.Tuples)
	}
	if stats.Delay != 10*cap {
		t.Fatalf("aggregate delay = %v, want 10×cap", stats.Delay)
	}
}

func TestEmptySelectFreeOfDelay(t *testing.T) {
	db := testDB(t, 10)
	clk := simClock()
	s, _ := New(db, Config{N: 10, Alpha: 1, Beta: 1, Cap: time.Second, Clock: clk})
	_, stats, err := s.Query("x", `SELECT * FROM items WHERE id = 12345`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delay != 0 || stats.Tuples != 0 {
		t.Fatalf("empty select stats = %+v", stats)
	}
}

func TestWritesCountUpdatesNotDelay(t *testing.T) {
	db := testDB(t, 10)
	clk := simClock()
	s, _ := New(db, Config{N: 10, Alpha: 1, Beta: 1, Cap: time.Hour, Clock: clk})
	_, stats, err := s.Query("writer", `UPDATE items SET payload = 'new' WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delay != 0 {
		t.Fatalf("write delayed: %v", stats.Delay)
	}
	if got := s.TuplesUpdated(); got != 1 {
		t.Fatalf("tuples updated = %d, want 1", got)
	}
	if got := s.Metrics().Counter("shield_tuples_updated_total").Value(); got != 1 {
		t.Fatalf("shield_tuples_updated_total = %d, want 1", got)
	}
}

func TestRateLimiting(t *testing.T) {
	db := testDB(t, 10)
	clk := simClock()
	s, _ := New(db, Config{
		N: 10, Alpha: 1, Beta: 1, Cap: time.Millisecond, Clock: clk,
		QueryRate: 1, QueryBurst: 2,
	})
	q := `SELECT * FROM items WHERE id = 1`
	if _, _, err := s.Query("eve", q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query("eve", q); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Query("eve", q)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third query err = %v", err)
	}
	// Different principal unaffected.
	if _, _, err := s.Query("mallory", q); err != nil {
		t.Fatal(err)
	}
	// Tokens refill with time. (Delays themselves advance the simulated
	// clock, so this follows the paper's observation that imposed delay
	// naturally rate-limits too.)
	clk.Advance(5 * time.Second)
	if _, _, err := s.Query("eve", q); err != nil {
		t.Fatal(err)
	}
}

func TestSubnetAggregationDefeatsSybils(t *testing.T) {
	db := testDB(t, 10)
	clk := simClock()
	s, _ := New(db, Config{
		N: 10, Alpha: 1, Beta: 1, Cap: time.Millisecond, Clock: clk,
		QueryRate: 0.001, QueryBurst: 3, SubnetAggregation: true,
	})
	q := `SELECT * FROM items WHERE id = 1`
	// Three "identities" on one /24 share a budget of 3.
	for i, addr := range []string{"10.1.2.3", "10.1.2.44", "10.1.2.200"} {
		if _, _, err := s.Query(addr, q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if _, _, err := s.Query("10.1.2.99", q); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("4th same-subnet query err = %v", err)
	}
	// A different subnet is a different principal.
	if _, _, err := s.Query("10.1.3.1", q); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationThrottle(t *testing.T) {
	db := testDB(t, 10)
	clk := simClock()
	s, _ := New(db, Config{
		N: 10, Alpha: 1, Beta: 1, Cap: time.Second, Clock: clk,
		RegistrationInterval: time.Hour,
	})
	if err := s.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b"); !errors.Is(err, ErrRegistrationThrottled) {
		t.Fatalf("second registration err = %v", err)
	}
	clk.Advance(time.Hour)
	if err := s.Register("b"); err != nil {
		t.Fatal(err)
	}
	// No throttle configured ⇒ registration always succeeds.
	s2, _ := New(db, Config{N: 10, Alpha: 1, Beta: 1, Cap: time.Second, Clock: clk})
	for i := 0; i < 10; i++ {
		if err := s2.Register(fmt.Sprintf("id%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUpdateRateShield(t *testing.T) {
	db := testDB(t, 100)
	clk := simClock()
	cap := 10 * time.Second
	s, err := New(db, Config{
		Kind: ByUpdateRate, N: 100, Alpha: 1, C: 1, Cap: cap, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.UpdatePolicy() == nil {
		t.Fatal("no update policy")
	}
	// Update tuple 1 frequently; pass time so rates are meaningful.
	for i := 0; i < 50; i++ {
		if _, _, err := s.Query("w", `UPDATE items SET payload = 'x' WHERE id = 1`); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if _, _, err := s.Query("w", `UPDATE items SET payload = 'x' WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	// Frequently updated tuple must be cheaper than rarely updated one,
	// which must be cheaper than or equal to a never-updated one.
	_, s1, _ := s.Query("r", `SELECT * FROM items WHERE id = 1`)
	_, s2, _ := s.Query("r", `SELECT * FROM items WHERE id = 2`)
	_, s3, _ := s.Query("r", `SELECT * FROM items WHERE id = 50`)
	if s1.Delay >= s2.Delay {
		t.Fatalf("hot-update delay %v not below cold %v", s1.Delay, s2.Delay)
	}
	if s3.Delay < s2.Delay {
		t.Fatalf("never-updated delay %v below rarely-updated %v", s3.Delay, s2.Delay)
	}
}

func TestQuoteExtractionDoesNotPerturb(t *testing.T) {
	db := testDB(t, 50)
	clk := simClock()
	s, _ := New(db, Config{N: 50, Alpha: 1, Beta: 1, Cap: time.Second, Clock: clk})
	ids := make([]uint64, 50)
	for i := range ids {
		ids[i] = uint64(i)
	}
	before := s.Tracker().Observations()
	q1 := s.QuoteExtraction(ids)
	q2 := s.QuoteExtraction(ids)
	if q1 != q2 {
		t.Fatalf("quote unstable: %v vs %v", q1, q2)
	}
	if s.Tracker().Observations() != before {
		t.Fatal("quote recorded observations")
	}
	if clk.Slept() != 0 {
		t.Fatal("quote slept")
	}
	// All 50 tuples cold ⇒ quote = 50 × cap.
	if q1 != 50*time.Second {
		t.Fatalf("cold quote = %v", q1)
	}
}

func TestAdversaryVsUserEndToEnd(t *testing.T) {
	// The headline behaviour through the full stack: replay a skewed
	// workload, then compare median user delay against a full extraction.
	const n = 2000
	db := testDB(t, n)
	clk := simClock()
	cap := 10 * time.Second
	s, _ := New(db, Config{N: n, Alpha: 1.2, Beta: 2.5, Cap: cap, Clock: clk})

	// Zipf-ish replay: tuple k gets ~ (k+1)^-1.2 share. Use a crude
	// deterministic schedule: tuple k queried max(1, 3000/(k+1)^1.2).
	for k := 0; k < 200; k++ {
		reps := int(3000 / math.Pow(float64(k+1), 1.2))
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			s.Tracker().Observe(uint64(k))
		}
	}
	// Median-ish user query (tuple rank ~3).
	_, userStats, err := s.Query("user", `SELECT * FROM items WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	advDelay := s.QuoteExtraction(ids)
	if advDelay < 1000*userStats.Delay {
		t.Fatalf("adversary %v not ≫ user %v", advDelay, userStats.Delay)
	}
	// Adversary within the N·cap bound.
	if advDelay > time.Duration(n)*cap {
		t.Fatalf("adversary %v exceeds N·cap", advDelay)
	}
}

func TestShieldAccessors(t *testing.T) {
	db := testDB(t, 10)
	s, _ := New(db, Config{N: 10, Alpha: 1, Beta: 1, Cap: time.Second, Clock: simClock()})
	if s.DB() != db {
		t.Fatal("DB accessor")
	}
	if s.Tracker() == nil || s.Gate() == nil {
		t.Fatal("nil accessor")
	}
	if s.UpdatePolicy() != nil {
		t.Fatal("popularity shield has update policy")
	}
	if s.Window() != 0 {
		t.Fatalf("window = %v", s.Window())
	}
}

func TestQueryErrorsPropagate(t *testing.T) {
	db := testDB(t, 10)
	s, _ := New(db, Config{N: 10, Alpha: 1, Beta: 1, Cap: time.Second, Clock: simClock()})
	if _, _, err := s.Query("u", `SELECT * FROM missing`); err == nil {
		t.Fatal("engine error swallowed")
	}
	if _, _, err := s.Query("u", `NOT SQL`); err == nil {
		t.Fatal("parse error swallowed")
	}
}
