package delay

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// PrincipalWaitCap is how many statements one principal may hold
// admitted at once (Gate.Admit): executing, or parked on its clock
// waiting for their charges to end. Past it the next one is refused
// before it executes, so one principal's waiting queries hold at most
// this many goroutines and replies.
const PrincipalWaitCap = 64

// principalClocks bounds the gate's clock table, as the rate limiter
// bounds its buckets. Past it a new principal's clock replaces an idle
// one; when every clock is in use or still owes time, Admit refuses the
// newcomer rather than forgive anyone's debt.
const principalClocks = 65536

// Gate meters tuple retrievals: it computes the policy delay for the
// tuples a query returns, sleeps for it on the configured clock, and
// feeds the access observations back to the learner. A query returning
// multiple tuples is charged the sum of per-tuple delays, per §2.1's
// aggregation rule ("a query that returns multiple tuples can simply be
// considered the aggregate of multiple simple queries").
//
// Each principal has one clock: the instant its last charge ends. A
// charge of d starts when the principal's previous charge ends (or now,
// if that is past) and its reply leaves d later, so one principal's
// concurrent queries wait one after another and its wall time is at
// least its bill (§2.4: one identity is one stream).
type Gate struct {
	policy Policy
	clock  vclock.Clock
	// observe records a whole charge's accesses in one call, so the
	// learner's serialization cost is paid once per query, not per tuple.
	observe func(ids []uint64)

	// clocks maps every named principal to its *PrincipalClock; clockMu
	// serializes adding and evicting them, and counts them in nclocks.
	// unnamed is the clock Charge and ChargeCtx bill.
	clocks  sync.Map
	clockMu sync.Mutex
	nclocks int
	unnamed *PrincipalClock

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
	g := &Gate{policy: policy, clock: clock, observe: observe, unnamed: &PrincipalClock{}}
	g.unnamed.busy.Store(math.MinInt64)
	return g, nil
}

// PrincipalClock is one principal's schedule: when its last charge
// ends, and how many of its statements are admitted and not yet
// released.
type PrincipalClock struct {
	busy     atomic.Int64 // UnixNano on the gate's clock
	admitted atomic.Int32
}

// Admit reserves one of principal's PrincipalWaitCap slots for a
// statement about to execute and returns the principal's clock, to
// charge on and then Release once the charge has been served or
// cancelled. It returns nil, reserving nothing, when the principal
// already holds every slot or when the clock table is full and no clock
// in it is idle.
func (g *Gate) Admit(principal string) *PrincipalClock {
	for {
		c := g.clockOf(principal)
		if c == nil {
			return nil
		}
		switch n := c.admitted.Load(); {
		case n == evicted:
			// Dropped from the table as we read it; the principal's next
			// clock is a fresh one.
		case n >= PrincipalWaitCap:
			return nil
		case c.admitted.CompareAndSwap(n, n+1):
			return c
		}
	}
}

// evicted marks a clock dropped from the table: no slot can be taken on
// it.
const evicted = -1

// clockOf returns principal's clock, adding one if the table has room
// or an idle clock to drop, and nil if not.
func (g *Gate) clockOf(principal string) *PrincipalClock {
	if v, ok := g.clocks.Load(principal); ok {
		return v.(*PrincipalClock)
	}
	g.clockMu.Lock()
	defer g.clockMu.Unlock()
	if v, ok := g.clocks.Load(principal); ok {
		return v.(*PrincipalClock)
	}
	if g.nclocks >= principalClocks && !g.evictIdleLocked() {
		return nil
	}
	c := &PrincipalClock{}
	c.busy.Store(math.MinInt64) // owes nothing, whatever the gate's clock reads
	g.clocks.Store(principal, c)
	g.nclocks++
	return c
}

// Release returns a slot Admit reserved.
func (c *PrincipalClock) Release() { c.admitted.Add(-1) }

// evictIdleLocked drops one clock that holds no slot and owes no time,
// reporting whether it found one. A clock that still owes time is never
// dropped: that would forgive its principal's waiting. Callers hold
// clockMu.
func (g *Gate) evictIdleLocked() (dropped bool) {
	now := g.clock.Now().UnixNano()
	g.clocks.Range(func(k, v any) bool {
		if c := v.(*PrincipalClock); c.busy.Load() <= now && c.admitted.CompareAndSwap(0, evicted) {
			g.clocks.Delete(k)
			g.nclocks--
			dropped = true
		}
		return !dropped
	})
	return dropped
}

// schedule puts a charge of d on clock c and returns how long the caller
// waits for it to end: d plus whatever c's earlier charges still owe.
func (g *Gate) schedule(c *PrincipalClock, d time.Duration) time.Duration {
	now := g.clock.Now().UnixNano()
	for {
		busy := c.busy.Load()
		start := max(busy, now)
		end := start + int64(d)
		if end < start { // a saturated d: the charge never ends
			end = math.MaxInt64
		}
		if c.busy.CompareAndSwap(busy, end) {
			return time.Duration(end - now)
		}
	}
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
// records the accesses, and returns the imposed delay. Charge and
// ChargeCtx bill the gate's unnamed clock.
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
	return g.ChargeCtxScaled(ctx, g.unnamed, 1, ids...)
}

// ChargeCtxScaled is ChargeCtx on clock c, with the quoted delay
// multiplied by mult — the surcharge hook the extraction detector
// escalates suspected principals through. mult 1 is the unscaled path;
// the product saturates at the maximum representable duration. The
// charge is put on the clock before the sleep, so a cancelled charge
// still owes its full delay: the principal's next charge starts after
// it.
func (g *Gate) ChargeCtxScaled(ctx context.Context, c *PrincipalClock, mult float64, ids ...uint64) (time.Duration, error) {
	total := scaleDelay(g.Quote(ids...), mult)
	wait := g.schedule(c, total)
	if g.inflight != nil {
		g.inflight.Inc()
	}
	err := g.clock.SleepCtx(ctx, wait)
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
