package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/delay"
	"repro/internal/ratelimit"
	"repro/internal/trace"
)

// SybilParams configures the §2.4 parallel-attack analysis. The paper
// argues in prose that a registration throttle of one identity per t
// renders parallelism moot when t is comparable to the single-identity
// extraction delay; this experiment quantifies the claim on the learned
// Calgary-shaped defense.
type SybilParams struct {
	Scale       int
	Cap         time.Duration
	CapFraction float64
	// Ks are the identity counts evaluated.
	Ks   []int
	Seed int64
}

// DefaultSybilParams returns the paper-scale configuration.
func DefaultSybilParams() SybilParams {
	return SybilParams{
		Scale: 1, Cap: 10 * time.Second, CapFraction: 0.1,
		Ks:   []int{1, 4, 16, 64, 256},
		Seed: 2004,
	}
}

// SybilAnalysis builds the learned Calgary-shaped defense, then prices
// parallel extraction at several identity counts under three regimes: no
// registration throttle, a modest throttle, and the §2.4 neutralizing
// throttle t = dtotal/4.
func SybilAnalysis(p SybilParams) (*Table, error) {
	gate, ids, err := learnedCalgary(CalgaryParams{Scale: p.Scale, Cap: p.Cap, CapFraction: p.CapFraction, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	seq, err := adversary.Sequential(gate, ids)
	if err != nil {
		return nil, err
	}
	neutral := ratelimit.RegistrationIntervalToNeutralize(seq.TotalDelay)
	modest := time.Hour

	t := &Table{
		Title: "§2.4 analysis: parallel (Sybil) extraction wall time vs identity count",
		Header: []string{
			"Identities", "No throttle (h)",
			fmt.Sprintf("1 id/%v (h)", modest),
			fmt.Sprintf("1 id/%s h — neutralizing (h)", Hours(neutral)),
		},
	}
	for _, k := range p.Ks {
		rNone, err := adversary.Parallel(gate, ids, k, 0)
		if err != nil {
			return nil, err
		}
		rModest, err := adversary.Parallel(gate, ids, k, modest)
		if err != nil {
			return nil, err
		}
		rNeutral, err := adversary.Parallel(gate, ids, k, neutral)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(rNone.WallTime), Hours(rModest.WallTime), Hours(rNeutral.WallTime),
		})
	}
	kStar, best := ratelimit.OptimalParallelism(seq.TotalDelay, neutral)
	t.Notes = append(t.Notes,
		fmt.Sprintf("single-identity extraction: %s hours over %d tuples", Hours(seq.TotalDelay), len(ids)),
		fmt.Sprintf("under the neutralizing throttle the optimal attack (k*=%d) still takes %s hours ≥ the sequential cost — parallelism is moot", kStar, Hours(best)))
	return t, nil
}

// learnedCalgary builds the defense every Sybil experiment attacks: the
// Calgary-shaped trace learned into a tracker, β tuned from it, and a
// gate that quotes without sleeping. ids is the whole catalog.
func learnedCalgary(p CalgaryParams) (*delay.Gate, []uint64, error) {
	tr, err := calgaryTrace("sybil", p)
	if err != nil {
		return nil, nil, err
	}
	tracker, err := learnTracker(tr, 1)
	if err != nil {
		return nil, nil, err
	}
	n := p.objects()
	beta, err := delay.TuneBeta(n, trace.CalgaryAlpha, tracker.MaxCount(), p.Cap, p.CapFraction)
	if err != nil {
		return nil, nil, err
	}
	pol, err := delay.NewPopularity(delay.PopularityConfig{
		N: n, Alpha: trace.CalgaryAlpha, Beta: beta, Cap: p.Cap,
	}, tracker)
	if err != nil {
		return nil, nil, err
	}
	gate, err := delay.NewGate(pol, noSleepClock{}, nil)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return gate, ids, nil
}

// StorefrontParams configures the storefront-relay coverage experiment.
type StorefrontParams struct {
	// N is the catalogue size.
	N int
	// Alphas are the customer-workload skews evaluated.
	Alphas []float64
	// Queries is the customer traffic volume relayed.
	Queries int
	Seed    int64
}

// DefaultStorefrontParams returns the default configuration.
func DefaultStorefrontParams() StorefrontParams {
	return StorefrontParams{
		N:       trace.CalgaryObjects,
		Alphas:  []float64{0.0, 1.0, 1.5, 2.0},
		Queries: 725_091,
		Seed:    9,
	}
}

// StorefrontCoverage measures what fraction of the catalogue a
// storefront accumulates by relaying legitimate customer traffic, per
// workload skew. The §2.4 storefront attack only sees what customers ask
// for; under realistic skew the long tail never arrives.
func StorefrontCoverage(p StorefrontParams) (*Table, error) {
	if p.N < 1 || p.Queries < 1 {
		return nil, fmt.Errorf("experiments: bad storefront params %+v", p)
	}
	t := &Table{
		Title:  "§2.4 analysis: storefront relay coverage after a year of customer traffic",
		Header: []string{"Customer workload α", "Queries relayed", "Catalogue coverage"},
	}
	quoter := zeroQuoter{}
	for _, alpha := range p.Alphas {
		rep, err := adversary.Storefront(quoter, p.N, alpha, p.Queries, p.Seed)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", alpha),
			fmt.Sprintf("%d", rep.QueriesForwarded),
			fmt.Sprintf("%.1f%%", 100*rep.Coverage),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("catalogue of %d objects; low-skew customers eventually cover everything, but the sharper the skew the larger the tail that never arrives", p.N))
	return t, nil
}

// noSleepClock quotes without sleeping.
type noSleepClock struct{}

func (noSleepClock) Now() time.Time                                      { return time.Unix(0, 0) }
func (noSleepClock) Sleep(_ time.Duration)                               {}
func (noSleepClock) SleepCtx(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// zeroQuoter prices everything at zero — storefront coverage does not
// depend on delay.
type zeroQuoter struct{}

func (zeroQuoter) Quote(ids ...uint64) time.Duration { return 0 }
