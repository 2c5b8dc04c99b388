package delay

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/vclock"
	"repro/internal/zipf"
)

// BenchmarkScanQuoteObserve is the delay layer's share of a range scan
// in isolation: over a 200k-entry tracker, quote a key range and then
// observe it, as Gate.ChargeCtx does. The two are timed together
// because the observe defers its index moves to the quote that follows.
// ns/op is per tuple.
//
// history says where the tracker's counts come from. random draws one
// per id, so neighbouring ids never tie and land far apart in rank order:
// the worst case for the index. scans replays overlapping key ranges with
// Zipf-distributed starts and the lengths scan_mixed draws (bench/): ids
// read together were incremented together, so runs of neighbours tie and
// sit side by side in rank order, as they do behind real scan traffic.
// Both are quoted under a 10 s cap with 200-tuple ranges drawn uniformly,
// so most of a range ranks past the cap rank and keeps no position in the
// index (its horizon, ostree), and almost no quoted tuple moves a
// position. uncapped is the scans tracker quoted with no cap: every tuple
// keeps its position and moves on every observe, the index's whole cost.
//
// traffic=zipf is the scans tracker under scan_mixed's own traffic: the
// ranges it quotes start at the Zipf-hot keys its history read, with the
// history's lengths, under the cap. Their tuples sit in the positioned
// head and move on every observe, which is the cost the uniform ranges
// never show.
func BenchmarkScanQuoteObserve(b *testing.B) {
	const n, span = 200_000, 200
	cases := []struct {
		name, history string
		capped, zipf  bool
	}{
		{"history=random", "random", true, false},
		{"history=scans", "scans", true, false},
		{"history=uncapped", "scans", false, false},
		{"traffic=zipf", "scans", true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tr, _ := counters.NewDecayed(1)
			rng := rand.New(rand.NewSource(1))
			ids, counts := make([]uint64, n), make([]float64, n)
			for i := range ids {
				ids[i], counts[i] = uint64(i+1), 1
				if c.history == "random" {
					counts[i] += float64(rng.Intn(100))
				}
			}
			// scan draws one range the way scan_mixed does: a Zipf-hot start
			// and a length of 10, 100 or 1,000.
			var scan func() (lo, length int)
			if c.history != "random" {
				dist, _ := zipf.New(n, 1)
				starts, hot := zipf.NewSampler(dist, 1), rng.Perm(n)
				scan = func() (lo, length int) {
					length = 10
					if u := rng.Float64(); u >= 0.9 {
						length = 1000
					} else if u >= 0.6 {
						length = 100
					}
					return min(hot[starts.Next()-1], n-length), length
				}
				for range 4000 {
					lo, length := scan()
					for i := lo; i < lo+length; i++ {
						counts[i]++
					}
				}
			}
			if err := tr.Import(ids, counts); err != nil {
				b.Fatal(err)
			}
			cfg := PopularityConfig{N: n, Alpha: 1, Beta: 2, Cap: 10 * time.Second}
			if !c.capped {
				cfg.Cap = 0
			}
			p, _ := NewPopularity(cfg, tr)
			g, _ := NewGate(p, vclock.NewSimulated(time.Unix(0, 0)), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				lo, length := rng.Intn(n-span), span
				if c.zipf {
					lo, length = scan()
				}
				g.Quote(ids[lo : lo+length]...)
				tr.ObserveBatch(ids[lo : lo+length])
				done += length
			}
		})
	}
}
