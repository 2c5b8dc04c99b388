package detect

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// testConfig returns a config against a 10,000-tuple catalog with a
// high grace so tests can isolate the coalition signal from individual
// escalation. A test that observes fewer than reclusterEvery batches
// sees sweeps only when it asks for them.
func testConfig() Config {
	return Config{
		CatalogSize: 10000,
		Policy:      EscalationPolicy{Grace: 0.40, Cap: 64},
	}
}

func mustDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// observeRange feeds ids [lo, hi) as one batch and returns the
// multiplier.
func observeRange(d *Detector, principal string, lo, hi int) float64 {
	ids := make([]uint64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ids = append(ids, uint64(i))
	}
	return d.ObserveBatch(principal, ids)
}

func TestConfigRequiresCatalogSize(t *testing.T) {
	if _, err := NewDetector(Config{}); err == nil {
		t.Fatal("zero CatalogSize should be rejected")
	}
}

// TestConfigRejectsBadSettings: zero means the default, and anything
// else outside a setting's range is an error, where it used to be kept
// (a NaN grace never escalates, a NaN threshold never clusters) or
// silently swapped for the default (a cap of 0.5 charged ×64).
func TestConfigRejectsBadSettings(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name        string
		grace, cap  float64
		jaccard     float64
		ok          bool
		wantGrace   float64
		wantCap     float64
		wantJaccard float64
	}{
		{name: "zero means default", ok: true, wantGrace: DefaultGrace, wantCap: DefaultCap, wantJaccard: DefaultJaccardThreshold},
		{name: "range ends", grace: 1, cap: 1, jaccard: 1, ok: true, wantGrace: 1, wantCap: 1, wantJaccard: 1},
		{name: "grace NaN", grace: nan},
		{name: "grace +Inf", grace: inf},
		{name: "grace -Inf", grace: -inf},
		{name: "grace negative", grace: -0.1},
		{name: "grace above 1", grace: 1.5},
		{name: "cap NaN", cap: nan},
		{name: "cap +Inf", cap: inf},
		{name: "cap below 1", cap: 0.5},
		{name: "cap negative", cap: -8},
		{name: "jaccard NaN", jaccard: nan},
		{name: "jaccard +Inf", jaccard: inf},
		{name: "jaccard negative", jaccard: -0.2},
		{name: "jaccard above 1", jaccard: 1.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDetector(Config{
				CatalogSize:      1000,
				Policy:           EscalationPolicy{Grace: tc.grace, Cap: tc.cap},
				JaccardThreshold: tc.jaccard,
			})
			if !tc.ok {
				if err == nil {
					t.Fatalf("accepted, filled to %+v", d.cfg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c := d.cfg; c.Policy.Grace != tc.wantGrace || c.Policy.Cap != tc.wantCap || c.JaccardThreshold != tc.wantJaccard {
				t.Fatalf("filled to %+v, want grace %v, cap %v, threshold %v", c, tc.wantGrace, tc.wantCap, tc.wantJaccard)
			}
		})
	}
}

func TestIndividualEscalation(t *testing.T) {
	cfg := testConfig()
	d := mustDetector(t, cfg)
	var esc metrics.Counter
	d.SetEscalationCounter(&esc)

	// Below grace: free.
	if m := observeRange(d, "scanner", 0, 3000); m != 1 {
		t.Errorf("coverage 0.30 < grace 0.40: mult %v, want 1", m)
	}
	if esc.Value() != 0 {
		t.Errorf("escalations %d, want 0", esc.Value())
	}
	// The batch that crosses the ramp escalates the same query — a
	// catalog-wide scan cannot finish inside its own grace period.
	if m := observeRange(d, "scanner", 3000, 10000); m != cfg.Policy.Cap {
		t.Errorf("full-coverage batch: mult %v, want cap %v", m, cfg.Policy.Cap)
	}
	if esc.Value() != 1 {
		t.Errorf("escalations %d, want 1", esc.Value())
	}
	// The crossing is counted once, and the untouched principal is free.
	observeRange(d, "scanner", 0, 10000)
	if esc.Value() != 1 {
		t.Errorf("escalations %d after re-scan, want still 1", esc.Value())
	}
	if m := d.Multiplier("someone-else"); m != 1 {
		t.Errorf("untracked principal: mult %v, want 1", m)
	}
}

// TestCoalitionEscalation is the tentpole scenario: four streams whose
// own coverage (28%) sits below grace (40%), invisible individually,
// but which share a verification sample giving pairwise Jaccard ≈ 0.5.
// Clustering attributes their 60% union coverage to the coalition and
// escalates every member.
func TestCoalitionEscalation(t *testing.T) {
	cfg := testConfig()
	d := mustDetector(t, cfg)
	var esc metrics.Counter
	d.SetEscalationCounter(&esc)

	streams := []string{"s0", "s1", "s2", "s3"}
	for i, name := range streams {
		observeRange(d, name, i*1000, (i+1)*1000) // disjoint shard, 10%
		observeRange(d, name, 6000, 8000)         // shared sample, 20%
		if m := d.Multiplier(name); m != 1 {
			t.Fatalf("%s before clustering: mult %v, want 1 (own cov below grace)", name, m)
		}
	}
	d.Recluster()
	if got := d.Coalitions(); got != 1 {
		t.Fatalf("coalitions %d, want 1", got)
	}
	for _, name := range streams {
		if m := d.Multiplier(name); m != cfg.Policy.Cap {
			t.Errorf("%s after clustering: mult %v, want cap (union cov ≈ 0.60)", name, m)
		}
	}
	if esc.Value() != int64(len(streams)) {
		t.Errorf("escalations %d, want %d", esc.Value(), len(streams))
	}
	// Suspects report the coalition attribution.
	top := d.Suspects(10)
	if len(top) != len(streams) {
		t.Fatalf("suspects %d, want %d", len(top), len(streams))
	}
	for _, s := range top {
		if s.CoalitionSize != 4 || s.Coalition == "" {
			t.Errorf("suspect %+v: want coalition of 4", s)
		}
		if s.CoalitionCoverage < 0.5 || s.CoalitionCoverage > 0.7 {
			t.Errorf("suspect %s coalition coverage %.3f, want ≈0.60", s.Principal, s.CoalitionCoverage)
		}
	}
	if mc := d.MaxCoverage(); mc < 0.5 {
		t.Errorf("MaxCoverage %.3f, want ≥ 0.5", mc)
	}
}

func TestLegitimateUsersDoNotCluster(t *testing.T) {
	d := mustDetector(t, testConfig())
	d.floor = 0.01 // force both users into the clustering pass
	// Two users sampling ~8% of the catalog pseudo-randomly and
	// independently: expected Jaccard ≈ 0.04, far under the threshold.
	for u := 0; u < 2; u++ {
		var ids []uint64
		for i := 0; i < 10000; i++ {
			if mix64(uint64(i)^uint64(u)<<32)%100 < 8 {
				ids = append(ids, uint64(i))
			}
		}
		d.ObserveBatch(fmt.Sprintf("user%d", u), ids)
	}
	d.Recluster()
	if got := d.Coalitions(); got != 0 {
		t.Errorf("coalitions %d, want 0 for independent users", got)
	}
	for u := 0; u < 2; u++ {
		if m := d.Multiplier(fmt.Sprintf("user%d", u)); m != 1 {
			t.Errorf("user%d: mult %v, want 1", u, m)
		}
	}
}

func TestHysteresisRelease(t *testing.T) {
	cfg := testConfig()
	d := mustDetector(t, cfg)
	// Escalate a coalition, then break it apart: the members' own
	// coverage is below grace, so raw falls back to 1, but the applied
	// multiplier releases geometrically across sweeps instead of
	// snapping down.
	for i, name := range []string{"a", "b", "c", "d"} {
		observeRange(d, name, i*1000, (i+1)*1000)
		observeRange(d, name, 6000, 8000)
	}
	d.Recluster()
	if m := d.Multiplier("a"); m != cfg.Policy.Cap {
		t.Fatalf("setup: mult %v, want cap", m)
	}
	// Flood the shards with nothing — just re-sweep with the coalition
	// forcibly below the candidate floor by raising it.
	d.floor = 1.1 // no candidates: coalition attribution clears
	d.Recluster()
	m1 := d.Multiplier("a")
	want1 := cfg.Policy.Cap * (1 - hysteresis)
	if m1 != want1 {
		t.Fatalf("after one release sweep: %v, want %v", m1, want1)
	}
	for i := 0; i < 100; i++ {
		d.Recluster()
	}
	if m := d.Multiplier("a"); m != 1 {
		t.Errorf("after 100 release sweeps: %v, want fully released to 1", m)
	}
}

func TestBoundedMemoryAndEvictColdest(t *testing.T) {
	d := mustDetector(t, testConfig())

	// 5,000 one-tuple principals overflow the 4,096 tracked. A
	// legitimate principal observed throughout the storm must never be
	// the coldest entry in its stripe.
	observeRange(d, "keeper", 0, 500)
	for i := 0; i < 5000; i++ {
		d.ObserveBatch(fmt.Sprintf("sybil%04d", i), []uint64{uint64(i)})
		if i%10 == 0 {
			d.ObserveBatch("keeper", []uint64{1})
		}
	}
	if n := d.TrackedPrincipals(); n != maxPrincipals {
		t.Errorf("tracked %d principals after 5,001, want the cap %d", n, maxPrincipals)
	}
	if got, bound := d.SketchBytes(), maxPrincipals*sketchBytes; got > bound {
		t.Errorf("sketch bytes %d exceed bound %d", got, bound)
	}
	keeper := d.Suspects(1)
	if len(keeper) == 0 || keeper[0].Principal != "keeper" {
		t.Fatalf("keeper should survive the storm as top suspect, got %+v", keeper)
	}
	if keeper[0].Coverage < 0.03 {
		t.Errorf("keeper's sketch was reset: coverage %.4f, want ≈0.05", keeper[0].Coverage)
	}
}

// TestEmptyBatchObservesNothing: a SELECT that matches nothing is
// charged nothing, and observing it must cost nobody else anything
// either. 8,000 empty batches from fresh names once filled every stripe
// and evicted an escalated principal, which came back at 1×; now they
// create no entry, evict nobody and take no sequence number.
func TestEmptyBatchObservesNothing(t *testing.T) {
	d := mustDetector(t, Config{CatalogSize: 1000, Policy: EscalationPolicy{Grace: 0.08, Cap: 64}})
	if m := observeRange(d, "extractor", 0, 1000); m != 64 {
		t.Fatalf("a whole-catalog scan is charged ×%v, want ×64", m)
	}
	seq := d.seq.Load()
	for i := 0; i < 8000; i++ {
		if m := d.ObserveBatch(fmt.Sprintf("free-%d", i), nil); m != 1 {
			t.Fatalf("an untracked principal's empty batch returned ×%v, want ×1", m)
		}
	}
	if m := d.ObserveBatch("extractor", []uint64{}); m != 64 {
		t.Errorf("the extractor's empty batch returned ×%v, want its ×64", m)
	}
	if n := d.TrackedPrincipals(); n != 1 {
		t.Errorf("tracking %d principals after empty batches, want 1", n)
	}
	if got := d.seq.Load(); got != seq {
		t.Errorf("empty batches moved the sequence from %d to %d", seq, got)
	}
	if m := d.Multiplier("extractor"); m != 64 {
		t.Errorf("extractor's multiplier is ×%v after 8,000 empty batches, want ×64", m)
	}
}

// TestReclusterCadence: the batch that brings the count to
// reclusterEvery runs a sweep, and none before it does.
func TestReclusterCadence(t *testing.T) {
	d := mustDetector(t, testConfig())
	for i, name := range []string{"a", "b", "c", "d"} {
		observeRange(d, name, i*1000, (i+1)*1000)
		observeRange(d, name, 6000, 8000)
	}
	for seq := 9; seq < reclusterEvery; seq++ {
		d.ObserveBatch("a", []uint64{0})
	}
	if got := d.Coalitions(); got != 0 {
		t.Fatalf("coalitions %d after %d batches, want 0: no sweep yet", got, reclusterEvery-1)
	}
	d.ObserveBatch("a", []uint64{0})
	if got := d.Coalitions(); got != 1 {
		t.Errorf("coalitions %d after %d batches, want 1 from the cadence-driven sweep", got, reclusterEvery)
	}
}

// TestDetectorConcurrent races observation, eviction, sweeps, export
// and absorb under -race: eight observers bring 5,120 principals
// through the 4,096-principal table, so stripes evict all along, while
// a reader sweeps, ranks, exports and absorbs what it exported.
func TestDetectorConcurrent(t *testing.T) {
	d := mustDetector(t, testConfig())
	var esc metrics.Counter
	d.SetEscalationCounter(&esc)

	const observers, each = 8, 640
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			heavy := fmt.Sprintf("p%d", g)
			for i := 0; i < each; i++ {
				lo := (g*each + i) % 9000
				observeRange(d, heavy, lo, lo+20)
				d.ObserveBatch(fmt.Sprintf("p%d-%d", g, i), []uint64{uint64(lo)})
				d.Multiplier(heavy)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mark uint64
		for i := 0; i < 50; i++ {
			d.Recluster()
			d.Suspects(5)
			d.MaxCoverage()
			d.TrackedPrincipals()
			d.SketchBytes()
			var snaps []SketchSnapshot
			snaps, mark = d.ExportSince(mark, 0)
			d.Absorb(snaps)
		}
	}()
	wg.Wait()
	if n := d.TrackedPrincipals(); n != maxPrincipals {
		t.Errorf("tracked %d principals after %d, want the cap %d", n, observers*(each+1), maxPrincipals)
	}
}
