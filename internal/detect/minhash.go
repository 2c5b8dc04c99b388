package detect

import "math"

// Signature is a one-permutation MinHash sketch of a tuple-id set: k
// slots, each holding the minimum hash whose low bits landed in that
// slot (math.MaxUint64 marks a slot no hash has reached). Two
// principals scanning overlapping regions of the catalog produce
// signatures whose slot-wise agreement estimates the Jaccard similarity
// of their tuple-id sets — the signal the detector clusters coalitions
// by. One permutation (slot = hash & mask, min within the slot) makes
// Add O(1) per id instead of the classic k hashes per id, which matters
// because the signature is updated on the observe path.
//
// Not safe for concurrent use; the Detector guards each signature with
// its shard lock.
type Signature struct {
	slots []uint64
	mask  uint64
}

// emptySlot marks a slot that no hash has landed in yet.
const emptySlot = math.MaxUint64

// NewSignature returns a signature with k slots (rounded up to a power
// of two, minimum 16). More slots sharpen the Jaccard estimate: the
// standard error with k filled slots is about 1/√k, so the default 256
// resolves similarities ~0.06 apart at one sigma.
func NewSignature(k int) *Signature {
	n := 16
	for n < k {
		n <<= 1
	}
	s := &Signature{slots: make([]uint64, n), mask: uint64(n - 1)}
	for i := range s.slots {
		s.slots[i] = emptySlot
	}
	return s
}

// Add folds one pre-mixed hash into the signature.
func (s *Signature) Add(hash uint64) {
	i := hash & s.mask
	if hash < s.slots[i] {
		s.slots[i] = hash
	}
}

// Jaccard estimates the Jaccard similarity of the two underlying sets.
// Slots empty in both sketches carry no information and are skipped;
// a slot empty in exactly one is a definite disagreement. Returns 0
// when either signature is empty or the widths differ.
func (s *Signature) Jaccard(other *Signature) float64 {
	if len(s.slots) != len(other.slots) {
		return 0
	}
	match, used := 0, 0
	for i, a := range s.slots {
		b := other.slots[i]
		if a == emptySlot && b == emptySlot {
			continue
		}
		used++
		if a == b {
			match++
		}
	}
	if used == 0 {
		return 0
	}
	return float64(match) / float64(used)
}

// Merge folds other into s (element-wise minimum), so the merged
// signature is exactly the signature of the unioned tuple stream: each
// slot holds the minimum hash that landed in it across both streams,
// which is the same value a single signature fed both streams would
// hold. This is the property the cluster's anti-entropy exchange leans
// on — per-shard partial signatures of one principal union losslessly
// into the principal's global signature, in any order, any number of
// times. Panics if the widths differ, mirroring HLL.Merge.
func (s *Signature) Merge(other *Signature) {
	if len(s.slots) != len(other.slots) {
		panic("detect: merging signatures of different width")
	}
	for i, v := range other.slots {
		if v < s.slots[i] {
			s.slots[i] = v
		}
	}
}

// Clone returns an independent copy for lock-free clustering snapshots.
func (s *Signature) Clone() *Signature {
	c := &Signature{slots: make([]uint64, len(s.slots)), mask: s.mask}
	copy(c.slots, s.slots)
	return c
}
