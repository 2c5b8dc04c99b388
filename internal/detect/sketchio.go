// Sketch serialization and the detector's anti-entropy surface.
//
// A cluster of delaydb shards restores *global* extraction detection by
// periodically exchanging per-principal sketches: HLL registers union by
// max, MinHash slots by min, so a principal's sketch is a CRDT — shards
// can exchange snapshots in any order, repeatedly, through any topology,
// and every node converges on the sketch a single node observing the
// whole stream would hold. The wire format below is deliberately dumb
// (version byte, size byte, raw registers): sketches are fixed-size and
// small (a 1 KiB HLL and a 2 KiB signature), and the exchanger
// meters the exact bytes it moves.
package detect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// Wire-format version bytes, bumped on any layout change so mixed-build
// clusters fail loudly instead of merging garbage.
const (
	hllWireVersion = 1
	sigWireVersion = 1
)

// MarshalBinary encodes the sketch as [version, p, reg[0..2^p)].
func (h *HLL) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 2+len(h.reg))
	buf[0] = hllWireVersion
	buf[1] = h.p
	copy(buf[2:], h.reg)
	return buf, nil
}

// UnmarshalHLL decodes a sketch written by MarshalBinary, recomputing
// the incremental estimator accumulators and rejecting register values
// no 64-bit hash can produce (a corrupt or hostile payload must not
// poison the sum).
func UnmarshalHLL(data []byte) (*HLL, error) {
	if len(data) < 2 {
		return nil, errors.New("detect: HLL payload too short")
	}
	if data[0] != hllWireVersion {
		return nil, fmt.Errorf("detect: HLL wire version %d, want %d", data[0], hllWireVersion)
	}
	p := data[1]
	if p < 4 || p > 16 {
		return nil, fmt.Errorf("detect: HLL precision %d out of [4,16]", p)
	}
	if len(data) != 2+(1<<p) {
		return nil, fmt.Errorf("detect: HLL payload %d bytes, want %d", len(data), 2+(1<<p))
	}
	h := NewHLL(p)
	maxRank := uint8(64 - p + 1)
	h.sum, h.zeros = 0, 0
	for i, r := range data[2:] {
		if r > maxRank {
			return nil, fmt.Errorf("detect: HLL register %d holds impossible rank %d", i, r)
		}
		h.reg[i] = r
		h.sum += pow2neg[r]
		if r == 0 {
			h.zeros++
		}
	}
	return h, nil
}

// MarshalBinary encodes the signature as [version, log2(width),
// slots...] with big-endian 64-bit slots.
func (s *Signature) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 2+8*len(s.slots))
	buf[0] = sigWireVersion
	buf[1] = uint8(bits.TrailingZeros(uint(len(s.slots))))
	for i, v := range s.slots {
		binary.BigEndian.PutUint64(buf[2+8*i:], v)
	}
	return buf, nil
}

// UnmarshalSignature decodes a signature written by MarshalBinary.
func UnmarshalSignature(data []byte) (*Signature, error) {
	if len(data) < 2 {
		return nil, errors.New("detect: signature payload too short")
	}
	if data[0] != sigWireVersion {
		return nil, fmt.Errorf("detect: signature wire version %d, want %d", data[0], sigWireVersion)
	}
	if data[1] > 24 {
		return nil, fmt.Errorf("detect: signature width 2^%d is implausible", data[1])
	}
	width := 1 << data[1]
	if width < 16 {
		return nil, fmt.Errorf("detect: signature width %d below the 16-slot floor", width)
	}
	if len(data) != 2+8*width {
		return nil, fmt.Errorf("detect: signature payload %d bytes, want %d", len(data), 2+8*width)
	}
	s := &Signature{slots: make([]uint64, width), mask: uint64(width - 1)}
	for i := range s.slots {
		s.slots[i] = binary.BigEndian.Uint64(data[2+8*i:])
	}
	return s, nil
}

// SketchSnapshot is one principal's serialized sketches, the unit the
// anti-entropy exchange moves between shards. The payloads are full
// cumulative sketch state, not diffs — merges are idempotent, so
// re-sending the whole sketch is always safe and "delta" only means
// "principals observed since the receiver's watermark".
type SketchSnapshot struct {
	Principal string `json:"principal"`
	// HLL and Sig are the MarshalBinary encodings (base64 in JSON).
	HLL []byte `json:"hll"`
	Sig []byte `json:"sig"`
}

// WireBytes is the sketch payload size, the quantity the exchanger's
// byte counters meter.
func (s SketchSnapshot) WireBytes() int { return len(s.HLL) + len(s.Sig) }

// ExportSince snapshots the sketches of every principal observed
// *locally* since the given sequence watermark whose own coverage is at
// least floor, plus the current sequence to use as the next watermark.
//
// The floor is the memory/bandwidth valve that keeps global detection
// from re-centralizing all principal state: millions of low-coverage
// legitimate users never gossip, only principals whose local coverage is
// already suspicious do. Pass 0 to export unconditionally. Locally-
// observed means Absorb does not re-mark a principal for export, so
// gossip does not echo through a hub exchange.
//
// The returned watermark is sound against concurrent observations
// because ObserveBatch acquires its sequence inside the shard critical
// section: every batch with seq ≤ the value loaded here has its
// localSeen stamp visible by the time the scan takes that shard's
// lock, so nothing at or below the watermark can slip between the load
// and the scan and then be filtered out forever.
func (d *Detector) ExportSince(since uint64, floor float64) ([]SketchSnapshot, uint64) {
	seq := d.seq.Load()
	var out []SketchSnapshot
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for name, st := range s.entries {
			if st.localSeen <= since || st.ownCov < floor {
				continue
			}
			hb, _ := st.hll.MarshalBinary()
			sb, _ := st.sig.MarshalBinary()
			out = append(out, SketchSnapshot{Principal: name, HLL: hb, Sig: sb})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Principal < out[j].Principal })
	return out, seq
}

// Absorb merges remote sketch snapshots into the local principal table:
// existing principals union in place, unknown principals are created
// (evicting the coldest local entry when the shard is full, exactly like
// a local observation would). Each absorbed principal's coverage and
// escalation multiplier are refreshed immediately — a shard that learns
// from its peers that a locally-quiet principal holds half the catalog
// starts surcharging on the very next query, before any clustering
// sweep. Snapshots that fail to decode or whose dimensions disagree with
// the detector's fixed layout are counted in rejected and skipped;
// one bad peer must not poison the table.
func (d *Detector) Absorb(snaps []SketchSnapshot) (merged, rejected int) {
	for _, sn := range snaps {
		if sn.Principal == "" {
			rejected++
			continue
		}
		hll, err := UnmarshalHLL(sn.HLL)
		if err != nil || hll.p != hllPrecision {
			rejected++
			continue
		}
		sig, err := UnmarshalSignature(sn.Sig)
		if err != nil || len(sig.slots) != signatureSlots {
			rejected++
			continue
		}
		s := d.shard(sn.Principal)
		s.mu.Lock()
		st, ok := s.entries[sn.Principal]
		if !ok {
			if len(s.entries) >= stripeCap {
				evictColdest(s)
			}
			st = newState()
			s.entries[sn.Principal] = st
		}
		st.hll.Merge(hll)
		for i, v := range sig.slots {
			st.lower(i, v)
		}
		// Freshen the eviction stamp (remote-hot principals are worth
		// keeping) without claiming a local observation.
		if seq := d.seq.Load(); seq > st.lastSeen {
			st.lastSeen = seq
		}
		st.ownCov = clamp01(st.hll.Estimate() / float64(d.cfg.CatalogSize))
		eff := st.ownCov
		if st.coalitionCov > eff {
			eff = st.coalitionCov
		}
		if raw := d.cfg.Policy.Multiplier(eff); raw > st.mult {
			if st.mult <= 1 && raw > 1 && d.escalations != nil {
				d.escalations.Inc()
			}
			st.mult = raw
		}
		s.mu.Unlock()
		merged++
	}
	return merged, rejected
}
