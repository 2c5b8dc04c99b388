package detect

import (
	"math"
	"math/bits"
)

// HLL is a HyperLogLog distinct-value sketch over pre-mixed 64-bit
// hashes. With precision p it keeps m = 2^p one-byte registers, so a
// sketch that can count billions of distinct tuples within a few
// percent costs 1 KiB at the default p = 10 — the property that lets
// the detector track thousands of principals in bounded memory where
// exact per-principal tuple-id sets would grow with the catalog.
//
// The estimator keeps the raw-estimate accumulators (Σ 2^-reg and the
// zero-register count) incrementally updated on Add, so Estimate is
// O(1) rather than an O(m) pass — the detector reads a coverage
// estimate after every observed batch.
//
// Not safe for concurrent use; the Detector guards each sketch with its
// shard lock.
type HLL struct {
	p     uint8
	reg   []uint8
	sum   float64 // Σ over registers of 2^-reg[i]
	zeros int     // number of zero registers (for linear counting)
}

// pow2neg[k] = 2^-k for every rank a 64-bit hash can produce, so the
// incremental sum update is a table lookup instead of math.Exp2.
var pow2neg [65]float64

func init() {
	for k := range pow2neg {
		pow2neg[k] = math.Exp2(-float64(k))
	}
}

// NewHLL returns a sketch with 2^p registers. p must be in [4, 16];
// the detector's default of 10 gives 1024 registers (~1 KiB) and a
// standard error of 1.04/√1024 ≈ 3.3%.
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 16 {
		panic("detect: HLL precision out of [4,16]")
	}
	m := 1 << p
	return &HLL{p: p, reg: make([]uint8, m), sum: float64(m), zeros: m}
}

// Add folds one pre-mixed hash into the sketch. The top p bits pick the
// register; the rank is the position of the first set bit in the
// remaining 64-p bits (1-based, capped at 64-p+1 when they are all
// zero).
func (h *HLL) Add(hash uint64) {
	idx := hash >> (64 - h.p)
	rest := hash << h.p
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if max := uint8(64 - h.p + 1); rank > max {
		rank = max
	}
	if old := h.reg[idx]; rank > old {
		h.reg[idx] = rank
		h.sum += pow2neg[rank] - pow2neg[old]
		if old == 0 {
			h.zeros--
		}
	}
}

// alpha is the standard HLL bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Estimate returns the approximate number of distinct hashes added,
// with the standard small-range linear-counting correction.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.reg))
	e := alpha(len(h.reg)) * m * m / h.sum
	if e <= 2.5*m && h.zeros > 0 {
		return m * math.Log(m/float64(h.zeros))
	}
	return e
}

// Merge folds other into h (register-wise max), so a coalition's union
// coverage is the merge of its members' sketches. Panics if the
// precisions differ.
func (h *HLL) Merge(other *HLL) {
	if h.p != other.p {
		panic("detect: merging HLLs of different precision")
	}
	for i, r := range other.reg {
		if old := h.reg[i]; r > old {
			h.reg[i] = r
			h.sum += pow2neg[r] - pow2neg[old]
			if old == 0 {
				h.zeros--
			}
		}
	}
}

// Clone returns an independent copy.
func (h *HLL) Clone() *HLL {
	c := NewHLL(h.p)
	c.copyFrom(h)
	return c
}

// copyFrom overwrites h with src's contents, reusing h's registers: the
// clustering sweep's allocation-free Clone. Panics if the precisions
// differ, like Merge.
func (h *HLL) copyFrom(src *HLL) {
	if h.p != src.p {
		panic("detect: copying HLLs of different precision")
	}
	copy(h.reg, src.reg)
	h.sum, h.zeros = src.sum, src.zeros
}

// SizeBytes reports the register array's footprint, the dominant cost
// of tracking a principal.
func (h *HLL) SizeBytes() int { return len(h.reg) }
