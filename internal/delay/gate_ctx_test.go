package delay

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// constPolicy charges a fixed delay per tuple.
type constPolicy struct{ d time.Duration }

func (p constPolicy) DelayBatch(ids []uint64) time.Duration { return time.Duration(len(ids)) * p.d }

func TestChargeCtxRecordsObservationsOnCancel(t *testing.T) {
	clk := vclock.NewSimulated(time.Unix(0, 0))
	var seen []uint64
	g, err := NewGate(constPolicy{time.Second}, clk, func(ids []uint64) { seen = append(seen, ids...) })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := g.ChargeCtx(ctx, 1, 2, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if d != 3*time.Second {
		t.Fatalf("quoted = %v", d)
	}
	// The anti-free-probe invariant: cancellation still charges the
	// learner, so repeated cancelled probes inflate the tuples'
	// popularity just like served queries would.
	if len(seen) != 3 {
		t.Fatalf("observations on cancel = %v", seen)
	}
	// And the cancelled sleep did not advance the simulated clock.
	if clk.Slept() != 0 {
		t.Fatalf("slept = %v", clk.Slept())
	}
}

func TestChargeCtxInstrumented(t *testing.T) {
	clk := vclock.NewSimulated(time.Unix(0, 0))
	g, err := NewGate(constPolicy{time.Second}, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	hist := reg.Histogram("delay_seconds", metrics.DefaultDelayBuckets())
	cancelledHist := reg.Histogram("delay_cancelled_seconds", metrics.DefaultDelayBuckets())
	g.Instrument(reg.Gauge("inflight"), hist, cancelledHist)

	if d := g.Charge(7); d != time.Second {
		t.Fatalf("charge = %v", d)
	}
	if hist.Count() != 1 {
		t.Fatalf("histogram count = %d", hist.Count())
	}
	if reg.Gauge("inflight").Value() != 0 {
		t.Fatalf("inflight = %d after charge", reg.Gauge("inflight").Value())
	}

	// A cancelled charge lands in the cancelled histogram, not the served
	// one — total imposed delay stays fully accounted while served-query
	// latency stays clean.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.ChargeCtx(ctx, 7)
	if hist.Count() != 1 {
		t.Fatalf("cancelled charge reached served histogram: %d", hist.Count())
	}
	if cancelledHist.Count() != 1 {
		t.Fatalf("cancelled histogram count = %d", cancelledHist.Count())
	}
}

// TestChargeCtxUsesBatchObserver: one charge is one observer call with
// every tuple of it.
func TestChargeCtxUsesBatchObserver(t *testing.T) {
	clk := vclock.NewSimulated(time.Unix(0, 0))
	var batches [][]uint64
	g, err := NewGate(constPolicy{time.Millisecond}, clk, func(ids []uint64) {
		batches = append(batches, append([]uint64(nil), ids...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ChargeCtx(context.Background(), 4, 5, 6); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("batch observer calls = %v", batches)
	}
}

func TestChargeCtxScaled(t *testing.T) {
	clk := vclock.NewSimulated(time.Unix(0, 0))
	g, err := NewGate(constPolicy{time.Second}, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	// mult 1 is exactly the unscaled path.
	if d := g.QuoteScaled(1, 1, 2); d != g.Quote(1, 2) {
		t.Fatalf("mult 1: %v != %v", d, g.Quote(1, 2))
	}
	d, err := g.ChargeCtxScaled(context.Background(), g.unnamed, 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 16*time.Second {
		t.Fatalf("×8 charge on 2s quote = %v", d)
	}
	if clk.Slept() != 16*time.Second {
		t.Fatalf("slept %v, want the scaled delay", clk.Slept())
	}
	// Surcharge only: a sub-unity factor never discounts.
	if d := g.QuoteScaled(0.25, 1); d != time.Second {
		t.Fatalf("mult 0.25 discounted: %v", d)
	}
}

func TestScaleDelaySaturates(t *testing.T) {
	if got := scaleDelay(maxDuration/2, 1e9); got != maxDuration {
		t.Fatalf("scaled overflow = %v, want saturation", got)
	}
	if got := scaleDelay(time.Second, 2.5); got != 2500*time.Millisecond {
		t.Fatalf("×2.5 = %v", got)
	}
	if got := scaleDelay(0, 100); got != 0 {
		t.Fatalf("zero delay scaled to %v", got)
	}
}
