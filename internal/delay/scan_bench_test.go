package delay

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/vclock"
)

// BenchmarkScanQuoteObserve is the delay layer's share of a range scan
// in isolation: over a 200k-entry tracker with the heavy weight ties an
// undecayed count history has, quote a 200-tuple key range and then
// observe it, as Gate.ChargeCtx does. The two are timed together because
// the observe defers its index moves to the quote that follows. ns/op is
// per tuple. cache=lag0 attaches a price cache that, at lag 0 under this
// stream, never hits — its cost is pure overhead.
func BenchmarkScanQuoteObserve(b *testing.B) {
	const n, span = 200_000, 200
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=lag0"
		}
		b.Run(name, func(b *testing.B) {
			tr, _ := counters.NewDecayed(1)
			rng := rand.New(rand.NewSource(1))
			ids, counts := make([]uint64, n), make([]float64, n)
			for i := range ids {
				ids[i], counts[i] = uint64(i+1), float64(1+rng.Intn(100))
			}
			if err := tr.Import(ids, counts); err != nil {
				b.Fatal(err)
			}
			p, _ := NewPopularity(PopularityConfig{N: n, Alpha: 1, Beta: 2, Cap: 10 * time.Second}, tr)
			if cached {
				pc, _ := NewPriceCache(4096, 0, 0)
				p.SetPriceCache(pc)
			}
			g, _ := NewGate(p, vclock.NewSimulated(time.Unix(0, 0)), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += span {
				lo := rng.Intn(n - span)
				g.Quote(ids[lo : lo+span]...)
				tr.ObserveBatch(ids[lo : lo+span])
			}
		})
	}
}
