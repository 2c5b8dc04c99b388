package delay

import (
	"context"
	"errors"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Gate meters tuple retrievals: it computes the policy delay for the
// tuples a query returns, sleeps for it on the configured clock, and
// feeds the access observations back to the learner. A query returning
// multiple tuples is charged the sum of per-tuple delays, per §2.1's
// aggregation rule ("a query that returns multiple tuples can simply be
// considered the aggregate of multiple simple queries").
type Gate struct {
	policy Policy
	clock  vclock.Clock
	// observe records a whole charge's accesses in one call, so the
	// learner's serialization cost is paid once per query, not per tuple.
	observe func(ids []uint64)

	// Optional instrumentation, set via Instrument.
	inflight *metrics.Gauge
	// delayHist records charges whose full delay was served;
	// cancelledHist records charges whose sleep was cut short. Keeping
	// them apart means /metrics does not under-report imposed delay when
	// adversaries hang up early, while served-query latency stays clean.
	delayHist     *metrics.Histogram
	cancelledHist *metrics.Histogram
}

// NewGate builds a gate. observe receives each charge's tuple ids in one
// call; it may be nil if the policy learns through some other path (e.g.
// update-rate policies observe writes, not reads).
func NewGate(policy Policy, clock vclock.Clock, observe func(ids []uint64)) (*Gate, error) {
	if policy == nil {
		return nil, errors.New("delay: nil policy")
	}
	if clock == nil {
		return nil, errors.New("delay: nil clock")
	}
	return &Gate{policy: policy, clock: clock, observe: observe}, nil
}

// Instrument attaches optional metrics: inflight counts goroutines
// currently sleeping in the gate; delayHist records each fully served
// charge's imposed delay in seconds; cancelledHist records the quoted
// delay of charges whose sleep was cut short by cancellation. Any may be
// nil. Call before the gate is shared between goroutines.
func (g *Gate) Instrument(inflight *metrics.Gauge, delayHist, cancelledHist *metrics.Histogram) {
	g.inflight = inflight
	g.delayHist = delayHist
	g.cancelledHist = cancelledHist
}

// Charge computes the total delay for the given result tuples, sleeps it,
// records the accesses, and returns the imposed delay.
func (g *Gate) Charge(ids ...uint64) time.Duration {
	d, _ := g.ChargeCtx(context.Background(), ids...)
	return d
}

// ChargeCtx is Charge with cancellation: the sleep ends early with
// ctx.Err() if ctx is cancelled or its deadline passes. The returned
// duration is always the full quoted delay.
//
// The access observations are recorded even when the sleep is cut short —
// a cancelled query has still revealed its result tuples' existence to
// the client's timing view, and more importantly, skipping the learning
// step would let an adversary probe the delay oracle for free by
// cancelling every query. Callers must likewise charge rate-limit tokens
// before calling (the Shield does).
func (g *Gate) ChargeCtx(ctx context.Context, ids ...uint64) (time.Duration, error) {
	return g.ChargeCtxScaled(ctx, 1, ids...)
}

// ChargeCtxScaled is ChargeCtx with the quoted delay multiplied by
// mult before sleeping — the surcharge hook the extraction detector
// escalates suspected principals through. mult 1 is the unscaled path;
// the product saturates at the maximum representable duration.
func (g *Gate) ChargeCtxScaled(ctx context.Context, mult float64, ids ...uint64) (time.Duration, error) {
	total := scaleDelay(g.Quote(ids...), mult)
	if g.inflight != nil {
		g.inflight.Inc()
	}
	err := g.clock.SleepCtx(ctx, total)
	if g.inflight != nil {
		g.inflight.Dec()
	}
	if g.observe != nil {
		g.observe(ids)
	}
	if err != nil {
		if g.cancelledHist != nil {
			g.cancelledHist.Observe(total.Seconds())
		}
		return total, err
	}
	if g.delayHist != nil {
		g.delayHist.Observe(total.Seconds())
	}
	return total, nil
}

// Quote returns the delay Charge would impose right now, without sleeping
// or recording observations. Experiments use it to measure the policy
// non-invasively, mirroring the paper's method of computing adversary
// delay "by examining the access counts after the trace was replayed".
func (g *Gate) Quote(ids ...uint64) time.Duration {
	return g.policy.DelayBatch(ids)
}

// QuoteScaled is Quote with the total multiplied by mult (saturating),
// matching what ChargeCtxScaled would impose.
func (g *Gate) QuoteScaled(mult float64, ids ...uint64) time.Duration {
	return scaleDelay(g.Quote(ids...), mult)
}

// scaleDelay multiplies a delay by an escalation factor, saturating at
// the maximum representable duration. Factors ≤ 1 leave the delay
// untouched: the detector only ever surcharges, never discounts.
func scaleDelay(d time.Duration, mult float64) time.Duration {
	if mult <= 1 || d <= 0 {
		return d
	}
	scaled := float64(d) * mult
	if scaled >= float64(maxDuration) {
		return maxDuration
	}
	return time.Duration(scaled)
}

// Policy returns the gate's policy.
func (g *Gate) Policy() Policy { return g.policy }
