package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
)

// detectShield builds a shield over n tuples with detection enabled:
// 10% grace, ×16 cap — small enough to exercise escalation inside a
// test-sized catalog.
func detectShield(t *testing.T, n int) *Shield {
	t.Helper()
	s, err := New(testDB(t, n), Config{
		N: n, Alpha: 1, Beta: 2, Cap: time.Second, Clock: simClock(),
		Detect: &detect.Config{
			Policy: detect.EscalationPolicy{Grace: 0.10, Cap: 16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDetectEscalatesScanner(t *testing.T) {
	const n = 500
	s := detectShield(t, n)
	if s.Detector() == nil {
		t.Fatal("detector not wired")
	}
	// A scanning principal sweeps the catalog in 50-tuple windows; once
	// its coverage clears the ramp the charged delay must be the policy
	// quote times the cap multiplier. The raw quote is captured before
	// each window — the charge itself advances the tracker.
	lastIDs := make([]uint64, 50)
	for i := range lastIDs {
		lastIDs[i] = uint64(n - 50 + i)
	}
	var last QueryStats
	var raw time.Duration
	for lo := 0; lo < n; lo += 50 {
		if lo == n-50 {
			raw = s.gate.Quote(lastIDs...)
		}
		q := fmt.Sprintf("SELECT * FROM items WHERE id >= %d AND id < %d", lo, lo+50)
		_, qs, err := s.Query("scanner", q)
		if err != nil {
			t.Fatal(err)
		}
		last = qs
	}
	if mult := s.Detector().Multiplier(s.principalKey("scanner")); mult != 16 {
		t.Fatalf("scanner multiplier %v, want cap 16", mult)
	}
	if want := 16 * raw; last.Delay != want {
		t.Fatalf("escalated charge %v, want 16×%v = %v", last.Delay, raw, want)
	}
	if got := s.Metrics().Counter("shield_detect_escalations_total").Value(); got != 1 {
		t.Fatalf("escalations counter %d, want 1", got)
	}
	// The detection gauges are live in the metrics export.
	exp := s.Metrics().Export()
	if exp["shield_detect_tracked_principals"].(float64) != 1 {
		t.Fatalf("tracked principals gauge = %v", exp["shield_detect_tracked_principals"])
	}
	if exp["shield_detect_sketch_bytes"].(float64) <= 0 {
		t.Fatalf("sketch bytes gauge = %v", exp["shield_detect_sketch_bytes"])
	}
	if exp["shield_detect_max_coverage"].(float64) < 0.8 {
		t.Fatalf("max coverage gauge = %v, want ≈1", exp["shield_detect_max_coverage"])
	}
}

func TestDetectLeavesModestUsersAlone(t *testing.T) {
	const n = 500
	s := detectShield(t, n)
	// A user repeatedly reading the same 20 tuples (4% coverage) never
	// escalates: every charge equals the raw quote.
	ids := make([]uint64, 20)
	for j := range ids {
		ids[j] = uint64(j)
	}
	for i := 0; i < 50; i++ {
		raw := s.gate.Quote(ids...)
		_, qs, err := s.Query("regular", "SELECT * FROM items WHERE id < 20")
		if err != nil {
			t.Fatal(err)
		}
		if qs.Delay != raw {
			t.Fatalf("iteration %d: charged %v, raw quote %v", i, qs.Delay, raw)
		}
	}
	if mult := s.Detector().Multiplier(s.principalKey("regular")); mult != 1 {
		t.Fatalf("regular user multiplier %v, want 1", mult)
	}
	if got := s.Metrics().Counter("shield_detect_escalations_total").Value(); got != 0 {
		t.Fatalf("escalations counter %d, want 0", got)
	}
}

// TestDetectOffIsZeroOverhead pins the detection-off hot path: no
// detector is constructed, charges are bit-identical to the raw quote,
// and the detection instruments export as zeros (stable schema).
func TestDetectOffIsZeroOverhead(t *testing.T) {
	db := testDB(t, 100)
	s, err := New(db, Config{N: 100, Alpha: 1, Beta: 2, Cap: time.Second, Clock: simClock()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Detector() != nil {
		t.Fatal("detector constructed without Config.Detect")
	}
	ids := make([]uint64, 30)
	for j := range ids {
		ids[j] = uint64(j)
	}
	for i := 0; i < 20; i++ {
		raw := s.gate.Quote(ids...)
		_, qs, err := s.Query("u", "SELECT * FROM items WHERE id < 30")
		if err != nil {
			t.Fatal(err)
		}
		if qs.Delay != raw {
			t.Fatalf("detection off: charged %v != quote %v", qs.Delay, raw)
		}
	}
	exp := s.Metrics().Export()
	for _, name := range []string{
		"shield_detect_tracked_principals", "shield_detect_sketch_bytes",
		"shield_detect_coalitions", "shield_detect_max_coverage",
	} {
		if v, ok := exp[name].(float64); !ok || v != 0 {
			t.Errorf("%s = %v, want 0 with detection off", name, exp[name])
		}
	}
	if exp["shield_detect_escalations_total"].(int64) != 0 {
		t.Errorf("escalations = %v, want 0", exp["shield_detect_escalations_total"])
	}
}

// TestDetectSweepInstruments: every clustering sweep is counted and
// timed, whichever request ran it, and both instruments export at zero
// with detection off.
func TestDetectSweepInstruments(t *testing.T) {
	s := detectShield(t, 500) // a sweep every 256 batches
	for i := 0; i < 300; i++ {
		if _, _, err := s.Query("regular", "SELECT * FROM items WHERE id < 20"); err != nil {
			t.Fatal(err)
		}
	}
	s.Detector().Recluster()
	sweeps := s.Metrics().Counter("shield_detect_sweeps_total").Value()
	if sweeps != 2 {
		t.Errorf("shield_detect_sweeps_total = %d after 300 batches and one forced sweep, want 2", sweeps)
	}
	if n := s.Metrics().Histogram("shield_detect_sweep_seconds", nil).Count(); n != sweeps {
		t.Errorf("shield_detect_sweep_seconds holds %d observations for %d sweeps", n, sweeps)
	}

	off, err := New(testDB(t, 100), Config{N: 100, Alpha: 1, Beta: 2, Cap: time.Second, Clock: simClock()})
	if err != nil {
		t.Fatal(err)
	}
	exp := off.Metrics().Export()
	if v, ok := exp["shield_detect_sweeps_total"].(int64); !ok || v != 0 {
		t.Errorf("shield_detect_sweeps_total = %v with detection off, want 0", exp["shield_detect_sweeps_total"])
	}
	if h, ok := exp["shield_detect_sweep_seconds"].(metrics.HistogramSnapshot); !ok || h.Count != 0 {
		t.Errorf("shield_detect_sweep_seconds = %v with detection off, want an empty histogram", exp["shield_detect_sweep_seconds"])
	}
}

// TestDetectSubnetAggregation: with subnet aggregation on, Sybil
// identities inside one /24 share a single detector principal, so their
// sketches merge and the coalition does not even need clustering.
func TestDetectSubnetAggregation(t *testing.T) {
	const n = 500
	db := testDB(t, n)
	s, err := New(db, Config{
		N: n, Alpha: 1, Beta: 2, Cap: time.Second, Clock: simClock(),
		SubnetAggregation: true,
		Detect: &detect.Config{
			Policy: detect.EscalationPolicy{Grace: 0.10, Cap: 16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		identity := fmt.Sprintf("10.0.0.%d:4000", i+1)
		lo := i * 50
		q := fmt.Sprintf("SELECT * FROM items WHERE id >= %d AND id < %d", lo, lo+50)
		if _, _, err := s.Query(identity, q); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.Detector(); d.TrackedPrincipals() != 1 {
		t.Fatalf("tracked %d principals, want 1 (subnet-aggregated)", d.TrackedPrincipals())
	}
	if mult := s.Detector().Multiplier(s.principalKey("10.0.0.1:4000")); mult != 16 {
		t.Fatalf("subnet multiplier %v, want cap 16", mult)
	}
}
