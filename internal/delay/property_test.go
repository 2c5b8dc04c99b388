package delay

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/counters"
)

// TestPopularityPropertyCapRespected: no configuration may ever exceed
// the cap for any tuple.
func TestPopularityPropertyCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		n := 10 + rng.Intn(5000)
		alpha := rng.Float64() * 2.5
		beta := rng.Float64() * 4
		cap := time.Duration(1+rng.Intn(10_000)) * time.Millisecond
		tr, err := counters.NewDecayed(1)
		if err != nil {
			return false
		}
		local := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			tr.Observe(uint64(local.Intn(n)))
		}
		p, err := NewPopularity(PopularityConfig{N: n, Alpha: alpha, Beta: beta, Cap: cap}, tr)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			if p.Delay(uint64(local.Intn(2*n))) > cap {
				return false
			}
		}
		return p.ExtractionDelay() <= time.Duration(n)*cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPopularityPropertyMoreAccessesNeverRaiseOwnDelay: observing a tuple
// can only lower (or keep) that tuple's delay relative to the others.
func TestPopularityPropertyMoreAccessesNeverRaiseOwnRank(t *testing.T) {
	f := func(accessPattern []uint8) bool {
		tr, err := counters.NewDecayed(1)
		if err != nil {
			return false
		}
		for _, a := range accessPattern {
			tr.Observe(uint64(a % 32))
		}
		target := uint64(5)
		before := tr.Rank(target)
		tr.Observe(target)
		after := tr.Rank(target)
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestModelPropertyDelayMonotoneInRank: Eq 1 must be non-decreasing in
// rank for every parameterization.
func TestModelPropertyDelayMonotoneInRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		m := Model{
			N:     10 + rng.Intn(100_000),
			Alpha: rng.Float64() * 2.5,
			Beta:  rng.Float64() * 4,
			Fmax:  1 + rng.Float64()*1e6,
		}
		if rng.Intn(2) == 0 {
			m.Cap = time.Duration(1+rng.Intn(10_000)) * time.Millisecond
		}
		prev := -1.0
		for _, rank := range []int{1, 2, 10, 100, m.N / 2, m.N} {
			if rank < 1 || rank > m.N {
				continue
			}
			d := m.DelaySecondsAtRank(rank)
			if d < prev {
				t.Fatalf("trial %d: delay fell from %v to %v at rank %d (%+v)", trial, prev, d, rank, m)
			}
			prev = d
		}
	}
}

// TestModelPropertyTotalsConsistent: the capped total never exceeds the
// uncapped total, and both are positive.
func TestModelPropertyTotalsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		capped := Model{
			N:     100 + rng.Intn(20_000),
			Alpha: rng.Float64() * 2,
			Beta:  rng.Float64() * 3,
			Fmax:  1 + rng.Float64()*1e5,
			Cap:   time.Duration(1+rng.Intn(10_000)) * time.Millisecond,
		}
		uncapped := capped
		uncapped.Cap = 0
		tc, tu := capped.TotalExtractionSeconds(), uncapped.TotalExtractionSeconds()
		if tc <= 0 || tu <= 0 {
			t.Fatalf("non-positive totals: %v, %v", tc, tu)
		}
		if tc > tu*(1+1e-9) {
			t.Fatalf("capped total %v exceeds uncapped %v (%+v)", tc, tu, capped)
		}
	}
}

// TestUpdateRatePropertyCapAndMonotone mirrors the popularity properties
// for the §3 policy.
func TestUpdateRatePropertyCapAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		tr, _ := counters.NewDecayed(1)
		cap := time.Duration(1+rng.Intn(5000)) * time.Millisecond
		u, err := NewUpdateRate(UpdateRateConfig{
			N:     10 + rng.Intn(10_000),
			Alpha: rng.Float64() * 2.5,
			C:     0.1 + rng.Float64()*10,
			Cap:   cap,
			Rmax:  0.1 + rng.Float64()*100,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		prev := time.Duration(-1)
		for _, rank := range []int{1, 5, 50, u.Config().N} {
			if rank > u.Config().N {
				continue
			}
			d := u.DelayForRank(rank)
			if d > cap {
				t.Fatalf("trial %d: rank %d delay %v above cap", trial, rank, d)
			}
			if d < prev {
				t.Fatalf("trial %d: delay fell at rank %d", trial, rank)
			}
			prev = d
		}
	}
}

// TestCapRankPricesTheTail: the quote path ranks only below capRank, so
// every rank from it on — a never-seen id's -1 and ranks past N included
// — must be priced as capRank is, and the rank just below a binding
// capRank must not be. Over both policies, a fixed and a learned scale,
// no cap and one binding mid-range, and nothing learned (scale ≤ 0:
// every rank capped, capRank 1).
func TestCapRankPricesTheTail(t *testing.T) {
	const n = 3000
	tr, _ := counters.NewDecayed(1)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20_000; i++ {
		tr.Observe(uint64(rng.ExpFloat64() * n / 8))
	}
	empty, _ := counters.NewDecayed(1)
	for _, scaleKind := range []string{"fixed", "learned", "nothing learned"} {
		for _, cap := range []string{"none", "binding"} {
			// A binding cap is the uncapped price of rank n/3.
			pop := func(c time.Duration) rankPricer {
				cfg, src := PopularityConfig{N: n, Alpha: 1, Beta: 1.5, Cap: c}, tr
				switch scaleKind {
				case "fixed":
					cfg.Fmax = 250
				case "nothing learned":
					src = empty
				}
				p, err := NewPopularity(cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			upd := func(c time.Duration) rankPricer {
				cfg, src := UpdateRateConfig{N: n, Alpha: 1.2, C: 3, Cap: c}, tr
				if scaleKind == "fixed" {
					cfg.Rmax = 40
				}
				if scaleKind == "nothing learned" {
					src = empty
				}
				u, err := NewUpdateRate(cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				if scaleKind == "learned" {
					u.SetWindow(60)
				}
				return u
			}
			for name, policy := range map[string]func(time.Duration) rankPricer{"popularity": pop, "updaterate": upd} {
				p := policy(0)
				src := p.(interface{ Tracker() *counters.Decayed }).Tracker()
				scale := p.scaleFor(src.MaxCount())
				if cap == "binding" {
					c := 10 * time.Second
					if scale > 0 {
						c = p.priceAt(n/3, scale)
					}
					p = policy(c)
				}
				c := p.capRank(scale)
				what := fmt.Sprintf("%s/%s scale %v/cap %s: capRank %d", name, scaleKind, scale, cap, c)
				switch {
				case cap == "none" && c != n+1,
					cap == "binding" && scaleKind != "nothing learned" && (c < n/4 || c > n/2),
					scaleKind == "nothing learned" && cap == "binding" && c != 1:
					t.Fatalf("%s: out of place", what)
				}
				for r := -1; r <= n+2; r++ {
					if r != 0 && p.priceAt(min(r, c), scale) != p.priceAt(r, scale) {
						t.Fatalf("%s: rank %d priced %v, min(rank, capRank) %v", what, r, p.priceAt(r, scale), p.priceAt(min(r, c), scale))
					}
				}
				if p.priceAt(-1, scale) != p.priceAt(c, scale) {
					t.Fatalf("%s: a never-seen id is not priced at capRank", what)
				}
				if c > 1 && c <= n && p.priceAt(c-1, scale) == p.priceAt(n, scale) {
					t.Fatalf("%s: rank %d already costs the cap", what, c-1)
				}
			}
		}
	}
}
