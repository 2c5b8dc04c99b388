// Package adversary generates the extraction attacks of the paper as
// tuple streams, and models extraction against a changing dataset (§3).
//
// CoordinatedStreams produces what a coalition asks for and Storefront
// what a relay sees; neither prices anything. The attack tables send the
// streams through the product, one point SELECT per tuple, and read each
// attacker's bill from the delays it was answered with
// (internal/experiments). The §3 model, ExtractUnderChange, stays a
// model: it prices a sequential extraction from an update-rate policy's
// per-rank delays and samples which extracted tuples went stale.
package adversary

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/delay"
	"repro/internal/zipf"
)

// CoordinatedStreams splits ids across k Sybil streams for a coordinated
// extraction: each stream fetches a disjoint round-robin shard plus a
// shared verification sample — a random verifyFraction of the catalog
// every stream re-fetches to cross-check its peers' answers (a coalition
// that never cross-checks cannot tell when the defender serves it
// garbage, and a fixed popular head would be free to re-fetch but
// useless for verifying the cold tail that extraction is about).
//
// The shared sample is also what makes the coalition visible to
// signature clustering: disjoint shards alone have zero pairwise
// overlap, while with a shared sample V the pairwise Jaccard is
// |V| / (2n/k + |V|(1−2/k)) — about 0.4 at k=4 and rising with k.
// Each stream's order is shuffled so verification interleaves with
// extraction instead of trailing it. Deterministic in seed.
func CoordinatedStreams(ids []uint64, k int, verifyFraction float64, seed int64) ([][]uint64, error) {
	if k < 1 {
		return nil, errors.New("adversary: k < 1")
	}
	if verifyFraction < 0 || verifyFraction >= 1 {
		return nil, errors.New("adversary: verifyFraction outside [0, 1)")
	}
	rng := rand.New(rand.NewSource(seed))
	var sample []uint64
	for _, id := range ids {
		if rng.Float64() < verifyFraction {
			sample = append(sample, id)
		}
	}
	streams := make([][]uint64, k)
	for i, id := range ids {
		streams[i%k] = append(streams[i%k], id)
	}
	for i := range streams {
		// The shard may already contain part of the sample; the re-fetch
		// is intentional — verification is a second read.
		streams[i] = append(streams[i], sample...)
		rng.Shuffle(len(streams[i]), func(a, b int) {
			streams[i][a], streams[i][b] = streams[i][b], streams[i][a]
		})
	}
	return streams, nil
}

// Storefront simulates a storefront relay attack: the adversary resells
// access, forwarding `queries` customer requests drawn from a Zipf(alpha)
// workload over n tuples and caching the answers, and reports the
// fraction of the dataset it accumulates. Because customers ask for
// popular items, coverage saturates far below 1: the long tail that an
// extraction robot must pay for is exactly what storefront traffic never
// requests.
func Storefront(n int, alpha float64, queries int, seed int64) (coverage float64, err error) {
	d, err := zipf.New(n, alpha)
	if err != nil {
		return 0, err
	}
	s := zipf.NewSampler(d, seed)
	seen := make(map[uint64]bool)
	for i := 0; i < queries; i++ {
		seen[uint64(s.Next()-1)] = true
	}
	return float64(len(seen)) / float64(n), nil
}

// ChangeReport describes a sequential extraction under change: its
// cost, and how much of the extracted copy was already obsolete when the
// extraction finished (§3).
type ChangeReport struct {
	// Tuples is how many tuples were extracted.
	Tuples int
	// TotalDelay is the sum of the per-tuple delays: the extraction's
	// wall time, one query after another.
	TotalDelay time.Duration
	// StaleFraction is the fraction of extracted tuples whose value
	// changed between their extraction instant and the end of the attack.
	StaleFraction float64
	// PredictedStale is Eq 12's closed-form prediction for comparison.
	PredictedStale float64
}

// ExtractUnderChange simulates a sequential extraction of n tuples while
// the dataset keeps changing. Updates arrive as a Poisson process with
// total rate totalUpdateRate (updates/sec) distributed across tuples by
// Zipf(alpha) — tuple of update-rank r receives share ∝ r^(−α) — matching
// the §4.3 setup (uniform queries, skewed updates). The delay of each
// tuple comes from policy, which should be a delay.UpdateRate built over
// the same ranking (update rank r ↔ tuple id r−1).
//
// A tuple is stale if at least one of its updates lands after its
// extraction instant and before the end of the extraction.
func ExtractUnderChange(policy *delay.UpdateRate, n int, alpha, totalUpdateRate float64, seed int64) (ChangeReport, error) {
	if policy == nil {
		return ChangeReport{}, errors.New("adversary: nil policy")
	}
	if n < 1 {
		return ChangeReport{}, errors.New("adversary: n < 1")
	}
	if totalUpdateRate <= 0 {
		return ChangeReport{}, errors.New("adversary: non-positive update rate")
	}
	dist, err := zipf.New(n, alpha)
	if err != nil {
		return ChangeReport{}, err
	}

	// Extraction timeline: tuple id i (update rank i+1) is retrieved
	// after the cumulative delay of ids 0..i.
	extractAt := make([]float64, n)
	var clock float64
	for i := 0; i < n; i++ {
		clock += policy.DelayForRank(i + 1).Seconds()
		extractAt[i] = clock
	}
	end := clock

	// Staleness: tuple i's updates are Poisson with rate
	// r_i = totalUpdateRate · P(rank i+1). It is stale iff at least one
	// update falls in (extractAt[i], end], which happens with probability
	// 1 − exp(−r_i · (end − extractAt[i])). Sample that Bernoulli.
	rng := rand.New(rand.NewSource(seed))
	stale := 0
	for i := 0; i < n; i++ {
		ri := totalUpdateRate * dist.Prob(i+1)
		window := end - extractAt[i]
		p := 1 - math.Exp(-ri*window)
		if rng.Float64() < p {
			stale++
		}
	}
	return ChangeReport{
		Tuples:         n,
		TotalDelay:     delay.SecondsToDuration(end),
		StaleFraction:  float64(stale) / float64(n),
		PredictedStale: delay.PredictedStaleFraction(policy.Config().C, alpha),
	}, nil
}
