// Package delay implements the paper's delay-assignment policies and the
// gate that meters tuple retrievals.
//
// Two policies are provided:
//
//   - Popularity (§2): delay inversely related to access popularity,
//     d(i) = (1/N) · i^(α+β) / fmax  (Eq 1), capped at dmax (§2.2).
//   - UpdateRate (§3): delay inversely related to update rate,
//     d(i) = (c/N) · i^α / rmax  (Eq 9), also capped.
//
// Both learn their rank input online from counters.Decayed trackers and
// treat never-seen ids as maximally unpopular (the paper's start-up rule:
// "We assume all items are equally unpopular with frequencies of zero",
// relying on the cap to keep early queries servable).
package delay

import (
	"errors"
	"math"
	"time"
)

// Policy prices the tuples a query returns.
type Policy interface {
	// DelayBatch returns the total delay for retrieving ids together: the
	// saturating sum of their per-tuple delays (§2.1's aggregation rule),
	// priced from one learner state in a bounded number of tracker lock
	// acquisitions rather than one per tuple.
	DelayBatch(ids []uint64) time.Duration
}

// satAdd adds a per-tuple delay into a running total, saturating at the
// maximum representable duration (the gate's aggregation rule).
func satAdd(total, d time.Duration) time.Duration {
	if total > maxDuration-d {
		return maxDuration
	}
	return total + d
}

// maxDuration saturates conversions from analytic float seconds; adversary
// totals with uncapped policies can exceed what int64 nanoseconds hold.
const maxDuration = time.Duration(math.MaxInt64)

// SecondsToDuration converts float seconds to a time.Duration, saturating
// at the maximum representable duration and clamping negatives to zero.
func SecondsToDuration(s float64) time.Duration {
	if s <= 0 || math.IsNaN(s) {
		return 0
	}
	ns := s * float64(time.Second)
	if ns >= float64(maxDuration) {
		return maxDuration
	}
	return time.Duration(ns)
}

// Seconds converts a duration to float seconds.
func Seconds(d time.Duration) float64 { return d.Seconds() }

// TuneBeta chooses the penalty exponent β so that the cap rank M — the
// rank past which every tuple receives the maximum delay (Eq 5) — lands at
// capFraction·N items *below* the cap; i.e. a fraction (1 − capFraction)
// of the dataset is capped. The paper leaves β as the provider's knob
// ("chosen to balance the desired penalty imposed on an extraction attack
// with the undesirable delays to legitimate users"); this helper inverts
// Eq 5:
//
//	dmax = (1/N) · M^(α+β) / fmax  ⇒  α+β = ln(dmax·N·fmax) / ln(M)
//
// fmax is in the same units the policy will use (effective request count
// of the hottest item). Returns an error if the inputs admit no β ≥ 0.
func TuneBeta(n int, alpha, fmax float64, cap time.Duration, capFraction float64) (float64, error) {
	if n < 2 || fmax <= 0 || cap <= 0 || capFraction <= 0 || capFraction >= 1 {
		return 0, errors.New("delay: TuneBeta needs n ≥ 2, fmax > 0, cap > 0, capFraction in (0,1)")
	}
	m := capFraction * float64(n)
	if m < 2 {
		m = 2
	}
	target := cap.Seconds() * float64(n) * fmax
	if target <= 1 {
		return 0, errors.New("delay: cap too small to tune against")
	}
	exp := math.Log(target) / math.Log(m)
	beta := exp - alpha
	if beta < 0 {
		return 0, errors.New("delay: inputs require negative beta")
	}
	return beta, nil
}
