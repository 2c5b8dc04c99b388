package adversary

import (
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/delay"
)

func TestStorefrontCoverageSaturates(t *testing.T) {
	const n = 5000
	// Heavy skew: customers only ask for the head of the catalogue.
	cov, err := Storefront(n, 1.5, 100000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cov >= 0.5 {
		t.Fatalf("storefront covered %.2f of the catalogue from skewed traffic", cov)
	}
	if cov <= 0 {
		t.Fatal("zero coverage")
	}
	// Uniform customers cover much more.
	uni, err := Storefront(n, 0, 100000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if uni <= cov {
		t.Fatalf("uniform coverage %.2f not above skewed %.2f", uni, cov)
	}
	if _, err := Storefront(0, 1, 10, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func newUpdatePolicy(t *testing.T, n int, alpha, c float64, cap time.Duration) *delay.UpdateRate {
	t.Helper()
	tr, err := counters.NewDecayed(1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := delay.NewUpdateRate(delay.UpdateRateConfig{
		N: n, Alpha: alpha, C: c, Cap: cap, Rmax: 1,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestExtractUnderChangeStaleness(t *testing.T) {
	const n = 10000
	alpha := 1.0
	u := newUpdatePolicy(t, n, alpha, 1, 10*time.Second)
	rep, err := ExtractUnderChange(u, n, alpha, 100 /* updates/sec */, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tuples != n {
		t.Fatalf("tuples = %d", rep.Tuples)
	}
	if rep.TotalDelay <= 0 {
		t.Fatal("no delay accumulated")
	}
	// With substantial update traffic during a long extraction, a large
	// fraction must be stale.
	if rep.StaleFraction < 0.5 {
		t.Fatalf("stale fraction = %v, want ≥ 0.5", rep.StaleFraction)
	}
	if rep.PredictedStale <= 0 || rep.PredictedStale > 1 {
		t.Fatalf("predicted stale = %v", rep.PredictedStale)
	}
}

func TestExtractUnderChangeNoUpdatesNoStaleness(t *testing.T) {
	u := newUpdatePolicy(t, 1000, 1, 1, time.Second)
	rep, err := ExtractUnderChange(u, 1000, 1, 1e-12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StaleFraction > 0.01 {
		t.Fatalf("stale fraction = %v with ~no updates", rep.StaleFraction)
	}
}

func TestExtractUnderChangeValidation(t *testing.T) {
	u := newUpdatePolicy(t, 10, 1, 1, time.Second)
	if _, err := ExtractUnderChange(nil, 10, 1, 1, 1); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := ExtractUnderChange(u, 0, 1, 1, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ExtractUnderChange(u, 10, 1, 0, 1); err == nil {
		t.Fatal("zero update rate accepted")
	}
	if _, err := ExtractUnderChange(u, 10, -1, 1, 1); err == nil {
		t.Fatal("bad alpha accepted")
	}
}

func TestExtractUnderChangeEarlyTuplesStaler(t *testing.T) {
	// Determinism check plus a structural property: running twice with
	// the same seed gives identical staleness.
	u := newUpdatePolicy(t, 1000, 1, 1, time.Second)
	a, _ := ExtractUnderChange(u, 1000, 1, 10, 99)
	b, _ := ExtractUnderChange(u, 1000, 1, 10, 99)
	if a.StaleFraction != b.StaleFraction {
		t.Fatal("not deterministic")
	}
}

func TestCoordinatedStreamsStructure(t *testing.T) {
	const n, k = 10000, 4
	const f = 0.25
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	streams, err := CoordinatedStreams(ids, k, f, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != k {
		t.Fatalf("got %d streams, want %d", len(streams), k)
	}
	sets := make([]map[uint64]bool, k)
	union := make(map[uint64]bool)
	for i, s := range streams {
		sets[i] = make(map[uint64]bool)
		for _, id := range s {
			sets[i][id] = true
			union[id] = true
		}
	}
	if len(union) != n {
		t.Fatalf("streams cover %d of %d ids", len(union), n)
	}
	// Every stream holds its 1/k shard plus roughly the f·n sample.
	for i, s := range sets {
		cov := float64(len(s)) / n
		want := 1.0/k + f*(1-1.0/k)
		if cov < want-0.05 || cov > want+0.05 {
			t.Errorf("stream %d coverage %.3f, want ≈%.3f", i, cov, want)
		}
	}
	// Pairwise Jaccard ≈ |V| / (2n/k + |V|(1−2/k)) ≈ 0.4 — the overlap
	// signature clustering keys on.
	inter := 0
	for id := range sets[0] {
		if sets[1][id] {
			inter++
		}
	}
	both := len(sets[0]) + len(sets[1]) - inter
	if j := float64(inter) / float64(both); j < 0.3 || j > 0.5 {
		t.Errorf("pairwise Jaccard %.3f, want ≈0.4", j)
	}
}

func TestCoordinatedStreamsDeterministicAndValidated(t *testing.T) {
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	a, err := CoordinatedStreams(ids, 3, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := CoordinatedStreams(ids, 3, 0.2, 42)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("not deterministic")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("not deterministic")
			}
		}
	}
	if _, err := CoordinatedStreams(ids, 0, 0.2, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := CoordinatedStreams(ids, 2, 1.0, 1); err == nil {
		t.Fatal("verifyFraction=1 accepted")
	}
	if _, err := CoordinatedStreams(ids, 2, -0.1, 1); err == nil {
		t.Fatal("negative verifyFraction accepted")
	}
}
