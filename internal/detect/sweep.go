package detect

import "math/bits"

// candidate is one principal chosen for a clustering pass.
type candidate struct {
	name string
	cov  float64
}

// attribution is what a sweep concluded about one coalition member; the
// zero value stands for everybody else.
type attribution struct {
	coalition string
	n         int
	cov       float64
}

// sweepScratch is the clustering pass's working memory: the sketches of
// the chosen candidates, copied out so the pass runs without any shard
// lock, and the pair counts derived from them. It is reused from sweep
// to sweep; clusterMu guards it.
type sweepScratch struct {
	cands []candidate
	// n signatures of width slots each are loaded. sigs holds them
	// slot-major — sigs[s*n+c] is slot s of candidate c — so grouping one
	// slot reads one run of memory. filled has one bit per slot per
	// candidate (words words each), set where the slot is not empty.
	n, width, words int
	sigs            []uint64
	filled          []uint64
	hlls            []*HLL
	union           *HLL
	// match[i*n+j], i < j, counts the slots at which candidates i and j
	// hold the same non-empty hash.
	match []uint16
	// Grouping one slot: table maps a hash to its group, group[c] is
	// the group of candidate c (-1: empty slot), and grouped holds the
	// members of the groups of two or more, group after group.
	table   []groupBucket
	groups  []groupSpan
	group   []int32
	grouped []int32

	assigned []bool
	members  []int
	attr     map[string]attribution
}

// groupBucket is one entry of the per-slot hash table that groups the
// candidates by the hash they hold at that slot: the candidates holding
// key are groups[group]. An entry is live only while gen names the slot
// being grouped, so moving to the next slot empties the table without
// touching it.
type groupBucket struct {
	key   uint64
	gen   uint32
	group int32
}

// groupSpan is one group of a slot: count candidates, which once laid
// out are grouped[end-count:end].
type groupSpan struct {
	count, end int32
}

func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// snapshot copies the sketches of w.cands out of the principal table,
// taking each principal's shard lock for the copy alone. A principal
// evicted since it was chosen is left with an empty signature, which
// matches nobody.
func (w *sweepScratch) snapshot(d *Detector) {
	w.size(len(w.cands), signatureSlots)
	for len(w.hlls) < w.n {
		w.hlls = append(w.hlls, NewHLL(hllPrecision))
	}
	for c, cand := range w.cands {
		s := d.shard(cand.name)
		s.mu.Lock()
		if st, ok := s.entries[cand.name]; ok {
			w.load(c, st.sig)
			w.hlls[c].copyFrom(st.hll)
		} else {
			w.load(c, nil)
		}
		s.mu.Unlock()
	}
}

// size readies the buffers for n signatures of width slots.
func (w *sweepScratch) size(n, width int) {
	w.n, w.width, w.words = n, width, (width+63)/64
	w.sigs = resized(w.sigs, n*width)
	w.filled = resized(w.filled, n*w.words)
	w.match = resized(w.match, n*n)
	w.group = resized(w.group, n)
	w.grouped = resized(w.grouped, n)
}

// load stores sig as column c. A nil signature, or one whose width
// is not the snapshot's, is stored as all-empty — the 0 that Jaccard
// returns for mismatched widths.
func (w *sweepScratch) load(c int, sig *Signature) {
	n, width := w.n, w.width
	filled := w.filled[c*w.words : (c+1)*w.words]
	clear(filled)
	if sig == nil || len(sig.slots) != width {
		for s := 0; s < width; s++ {
			w.sigs[s*n+c] = emptySlot
		}
		return
	}
	for s, v := range sig.slots {
		w.sigs[s*n+c] = v
		if v != emptySlot {
			filled[s>>6] |= 1 << (s & 63)
		}
	}
}

// countMatches fills match for all pairs of the loaded signatures at
// once. Slot by slot it groups the candidates by the hash they hold
// there — a hash table keyed by that hash — lays the members of every
// group of two or more side by side, and adds one to every pair inside a
// group: exactly the pairs for which Jaccard's a == b holds at that
// slot, empty slots never entering the table. The cost is slots ×
// candidates probes plus one increment per real agreement, where
// comparing pair by pair costs slots × candidates² whether anything
// agrees or not. Members are listed in ascending order, so the
// increments for a member run along its own row of match.
func (w *sweepScratch) countMatches() {
	n, width := w.n, w.width
	clear(w.match)
	tsize := 2
	for tsize < 2*n {
		tsize <<= 1
	}
	w.table = resized(w.table, tsize)
	clear(w.table)
	table, mask := w.table, uint64(tsize-1)
	group, grouped := w.group[:n], w.grouped[:n]
	for s := 0; s < width; s++ {
		col := w.sigs[s*n : (s+1)*n]
		gen := uint32(s + 1)
		groups := w.groups[:0]
		shared := false
		for c, v := range col {
			if v == emptySlot {
				group[c] = -1
				continue
			}
			// Every hash in this column shares its low bits (they chose
			// the slot), so the table is indexed by the high ones.
			b := (v >> 32) & mask
			for table[b].gen == gen && table[b].key != v {
				b = (b + 1) & mask
			}
			if table[b].gen != gen {
				table[b] = groupBucket{key: v, gen: gen, group: int32(len(groups))}
				groups = append(groups, groupSpan{})
			}
			g := table[b].group
			group[c] = g
			if groups[g].count++; groups[g].count == 2 {
				shared = true
			}
		}
		w.groups = groups
		if !shared {
			continue
		}
		end := int32(0)
		for g := range groups {
			if groups[g].count >= 2 {
				groups[g].end = end // the write position until the group is full
				end += groups[g].count
			}
		}
		for c, g := range group {
			if g >= 0 && groups[g].count >= 2 {
				grouped[groups[g].end] = int32(c)
				groups[g].end++
			}
		}
		for _, g := range groups {
			if g.count < 2 {
				continue
			}
			members := grouped[g.end-g.count : g.end]
			for a, i := range members[:len(members)-1] {
				row := w.match[int(i)*n : int(i)*n+n]
				for _, j := range members[a+1:] {
					row[j]++
				}
			}
		}
	}
}

// jaccard returns what Signature.Jaccard returns for loaded signatures
// i < j: the same two integers — agreeing slots, and slots filled in
// either — and the same division.
func (w *sweepScratch) jaccard(i, j int) float64 {
	match := w.match[i*w.n+j]
	if match == 0 {
		return 0
	}
	fi, fj := w.filled[i*w.words:(i+1)*w.words], w.filled[j*w.words:(j+1)*w.words]
	used := 0
	for k, x := range fi {
		used += bits.OnesCount64(x | fj[k])
	}
	return float64(match) / float64(used)
}
