package core

import (
	"errors"
	"testing"
	"time"
)

func TestDeleteEvictsFromTracker(t *testing.T) {
	db := testDB(t, 20)
	s, _ := New(db, Config{N: 20, Alpha: 1, Beta: 1, Cap: time.Second, Clock: simClock()})
	for i := 0; i < 10; i++ {
		s.Query("u", `SELECT * FROM items WHERE id = 3`)
	}
	if s.Tracker().Count(3) != 10 {
		t.Fatalf("count = %v", s.Tracker().Count(3))
	}
	if _, _, err := s.Query("u", `DELETE FROM items WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	if s.Tracker().Count(3) != 0 {
		t.Fatalf("deleted tuple still tracked: %v", s.Tracker().Count(3))
	}
	if got := s.TuplesUpdated(); got != 1 {
		t.Fatalf("tuples updated = %d after deleting one, want 1", got)
	}
}

// TestDeleteMakesExtractedCopyStale is the staleness-undercount
// regression, with staleness on values as §3 defines it: an extracted
// tuple is stale once re-reading it no longer gives what the extraction
// got. A deleted tuple re-reads as nothing, so an adversary's copy of it
// is stale while the copy of an untouched tuple is not.
func TestDeleteMakesExtractedCopyStale(t *testing.T) {
	db := testDB(t, 20)
	s, _ := New(db, Config{N: 20, Alpha: 1, Beta: 1, Cap: time.Second, Clock: simClock()})
	read := func() map[int64]string {
		res, err := db.Exec(`SELECT * FROM items WHERE id >= 3 AND id <= 4`)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int64]string{}
		for _, row := range res.Rows {
			out[row[0].Int] = row[1].Str
		}
		return out
	}
	extracted := read()
	if len(extracted) != 2 {
		t.Fatalf("extracted %v, want ids 3 and 4", extracted)
	}
	if _, _, err := s.Query("u", `DELETE FROM items WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	now := read()
	if len(now) != 1 || now[4] != extracted[4] {
		t.Fatalf("re-read %v after deleting 3 from %v: want 3 stale (gone) and 4 fresh", now, extracted)
	}
	if s.Tracker().Count(3) != 0 {
		t.Fatal("deleted tuple still tracked")
	}
}

func TestDeleteEvictsFromAdaptiveTrackers(t *testing.T) {
	db := testDB(t, 20)
	s, _ := New(db, Config{
		N: 20, Alpha: 1, Beta: 1, Cap: time.Second, Clock: simClock(),
		AdaptiveDecayRates: []float64{1, 1.1},
	})
	for i := 0; i < 5; i++ {
		s.Query("u", `SELECT * FROM items WHERE id = 2`)
	}
	s.Query("u", `DELETE FROM items WHERE id = 2`)
	if s.Tracker().Count(2) != 0 {
		t.Fatal("adaptive tracker kept deleted tuple")
	}
}

func TestExplainBlockedThroughShield(t *testing.T) {
	db := testDB(t, 10)
	s, _ := New(db, Config{N: 10, Alpha: 1, Beta: 1, Cap: time.Second, Clock: simClock()})
	_, _, err := s.Query("u", `EXPLAIN SELECT * FROM items WHERE id = 1`)
	if !errors.Is(err, ErrExplainBlocked) {
		t.Fatalf("err = %v", err)
	}
	// EXPLAIN remains available on the administrative path.
	res, err := s.DB().Exec(`EXPLAIN SELECT * FROM items WHERE id = 1`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("admin explain: %v, %v", res, err)
	}
}
