package detect

import (
	"fmt"
	"math"
)

// EscalationPolicy maps an estimated coverage fraction — how much of
// the catalog a principal, or the coalition it belongs to, has already
// fetched — to a delay multiplier applied on top of the per-tuple
// policy delay. Below Grace the multiplier is exactly 1 (legitimate
// workloads never feel the detector); across the next rampWidth of
// coverage it rises smoothly (smoothstep, so there is no price cliff an
// adversary can sit just under and probe) to Cap, where it stays for
// the rest of the scan.
//
// Escalation is instant (coverage only grows between resets, so
// waiting gains nothing), but once a principal's effective coverage
// falls — e.g. its coalition is re-clustered apart — the applied
// multiplier decays geometrically by (1 - hysteresis) per clustering
// sweep instead of snapping down. A coalition cannot flap its price by
// dancing around the threshold.
type EscalationPolicy struct {
	// Grace, in (0, 1], is the coverage fraction below which the
	// multiplier is 1. It should sit above the coverage a heavy
	// legitimate user reaches over the retention window (the defaults
	// assume a Zipf consumer touching a few percent of the catalog). 0
	// means DefaultGrace.
	Grace float64
	// Cap, finite and at least 1, is the maximum multiplier; 1 turns
	// escalation off. With the paper's per-tuple cap dmax, an escalated
	// scan pays up to Cap×dmax per cold tuple. 0 means DefaultCap.
	Cap float64
}

// Default escalation parameters: a principal may see 8% of the catalog
// for free, pays smoothly rising surcharges until 18%, and ×64 beyond.
const (
	DefaultGrace = 0.08
	DefaultCap   = 64
)

// The ramp and the release. rampWidth is the coverage span of the
// smooth rise: the multiplier reaches Cap at Grace+rampWidth. A wider
// ramp lets a scanner read more of the catalog cheaply; a narrower one
// makes the price climb steep enough to probe. hysteresis is the
// per-sweep release fraction: an applied multiplier above the raw one
// loses 10% of itself per sweep, so ×64 takes about 40 sweeps to fall
// back to 1.
const (
	rampWidth  = 0.10
	hysteresis = 0.10
)

// fill replaces zero fields with defaults and rejects values outside
// their ranges, NaN and infinities included.
func (p *EscalationPolicy) fill() error {
	if p.Grace == 0 {
		p.Grace = DefaultGrace
	}
	if p.Cap == 0 {
		p.Cap = DefaultCap
	}
	if !(p.Grace > 0 && p.Grace <= 1) {
		return fmt.Errorf("detect: Grace %v outside (0, 1]", p.Grace)
	}
	if !(p.Cap >= 1) || math.IsInf(p.Cap, 1) {
		return fmt.Errorf("detect: Cap %v is not a finite multiplier ≥ 1", p.Cap)
	}
	return nil
}

// Multiplier returns the raw (hysteresis-free) multiplier for an
// estimated coverage fraction.
func (p EscalationPolicy) Multiplier(coverage float64) float64 {
	if coverage <= p.Grace || p.Cap <= 1 {
		return 1
	}
	t := (coverage - p.Grace) / rampWidth
	if t >= 1 {
		return p.Cap
	}
	s := t * t * (3 - 2*t) // smoothstep
	return 1 + (p.Cap-1)*s
}

// release applies one sweep of hysteresis: the applied multiplier moves
// instantly up to raw but decays only geometrically down toward it.
func (p EscalationPolicy) release(applied, raw float64) float64 {
	if raw >= applied {
		return raw
	}
	decayed := applied * (1 - hysteresis)
	if decayed < raw {
		return raw
	}
	return decayed
}
