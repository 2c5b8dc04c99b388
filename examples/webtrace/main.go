// Webtrace: the paper's §4.1 scenario end to end. A Calgary-shaped web
// workload (static Zipf popularity) is replayed through the delay policy
// while the distribution is learned online; afterwards the example
// contrasts the median legitimate delay with the cost of a full
// extraction and with parallel (Sybil) variants of the attack, each
// attacker reading the catalog through the shield one point SELECT per
// tuple.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/adversary"
	"repro/internal/counters"
	"repro/internal/delay"
	"repro/internal/experiments"
	"repro/internal/ratelimit"
	"repro/internal/trace"
)

func main() {
	// A 1/8-scale Calgary-shaped trace keeps the demo around a second.
	const (
		scale    = 8
		objects  = trace.CalgaryObjects / scale
		requests = trace.CalgaryRequests / scale
		cap      = 10 * time.Second
		seed     = 1
	)
	tr, err := trace.SyntheticWeb("webtrace", objects, requests,
		trace.CalgaryAlpha, trace.CalgaryTailAlpha, trace.CalgaryHeadRanks, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %d requests over %d objects (Zipf α=%.1f head)\n",
		len(tr.Requests), objects, trace.CalgaryAlpha)

	// Learn online, quoting each request's delay before counting it.
	tracker, err := counters.NewDecayed(1) // static workload: keep full history
	if err != nil {
		log.Fatal(err)
	}
	// β tuned so ~90% of ranks sit at the cap, the paper's sweet spot.
	_, top := tr.TopK(1)
	beta, err := delay.TuneBeta(objects, trace.CalgaryAlpha, float64(top[0]), cap, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := delay.NewPopularity(delay.PopularityConfig{
		N: objects, Alpha: trace.CalgaryAlpha, Beta: beta, Cap: cap,
	}, tracker)
	if err != nil {
		log.Fatal(err)
	}
	delays := make([]float64, 0, len(tr.Requests))
	for _, id := range tr.Requests {
		delays = append(delays, pol.Delay(id).Seconds())
		tracker.Observe(id)
	}
	sort.Float64s(delays)
	fmt.Printf("legitimate user delays:  median %.3f ms, p99 %.1f ms\n",
		delays[len(delays)/2]*1000, delays[len(delays)*99/100]*1000)

	// The adversary must fetch everything, through the product: a shield
	// on a simulated clock holding the catalog as rows, its counts
	// learned by serving the same trace as point SELECTs.
	def, err := experiments.LearnDefense(experiments.CalgaryParams{Scale: scale, Cap: cap, CapFraction: 0.1, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	seq, err := def.Extract(1, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential extraction:   %v (%.1f hours, ceiling %.1f hours)\n",
		seq, seq.Hours(), (time.Duration(objects) * cap).Hours())

	// Parallel attack with 20 Sybil identities, with and without a
	// registration throttle sized by the §2.4 cost model.
	par, err := def.Extract(20, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("20-way parallel attack:  wall time %.1f hours (no throttle)\n", par.Hours())

	throttle := ratelimit.RegistrationIntervalToNeutralize(seq)
	bestK, best := 0, time.Duration(0)
	for k := 1; k <= 64; k++ {
		wall, err := def.Extract(k, throttle)
		if err != nil {
			log.Fatal(err)
		}
		if k == 1 || wall < best {
			bestK, best = k, wall
		}
	}
	kStar, _ := ratelimit.OptimalParallelism(seq, throttle)
	fmt.Printf("with registration throttle of one identity per %.1f hours:\n", throttle.Hours())
	fmt.Printf("  best attack uses %d identities and still takes %.1f hours (analytic k*=%d)\n",
		bestK, best.Hours(), kStar)

	// A storefront reselling real user traffic never sees the tail.
	coverage, err := adversary.Storefront(objects, trace.CalgaryAlpha, len(tr.Requests), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("storefront relaying %d user queries covers only %.1f%% of the catalogue\n",
		len(tr.Requests), 100*coverage)
}
