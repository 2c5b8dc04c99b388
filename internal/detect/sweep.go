package detect

import (
	"cmp"
	"math/bits"
	"slices"
)

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

// slotMask has one bit per signature slot. A principal's dirty mask marks
// the slots lowered since a sweep last copied them.
type slotMask [signatureSlots / 64]uint64

// sweepScratch is the clustering pass's memory, kept from sweep to sweep;
// clusterMu guards it. Each candidate's signature lives in a column that
// it keeps for as long as it stays a candidate, next to the pair counts
// derived from the columns, so a sweep copies only the slots that changed
// since the last one and recounts only the pairs those slots touch.
type sweepScratch struct {
	cands []candidate
	// col[i] is the column of cands[i], and fresh[i] says the column was
	// given to it this sweep, so every slot has to be copied. colOf maps
	// the candidates of the last sweep to their columns.
	col   []int32
	fresh []bool
	colOf map[string]int32
	taken []bool

	// Columns 0..n-1 are in use, stride are allocated (never more than
	// maxCandidates), each width slots wide. sigs holds them slot-major —
	// sigs[s*stride+c] is slot s of column c — so everything one slot
	// touches is one run of memory. filled has one bit per slot per
	// column (words words each), set where the slot is not empty, and
	// fills counts them.
	n, stride, width, words int
	sigs                    []uint64
	filled                  []uint64
	fills                   []uint16
	// match[a*stride+b] counts the slots at which columns a != b hold
	// the same non-empty hash. It is kept symmetric, so one column's
	// counts against all the others are one row.
	match []uint16

	// changes are the slot writes copied out this sweep and not yet
	// applied. Past rebuildAt of them the sweep stops listing, writes
	// the rest straight into the columns, and recounts every pair by
	// groups instead (rebuild).
	changes []slotChange
	rebuild bool

	// Grouping one slot for a rebuild: table maps a hash to its group,
	// group[c] is the group of column c (-1: empty slot), and grouped
	// holds the members of the groups of two or more, group after group.
	table   []groupBucket
	groups  []groupSpan
	group   []int32
	grouped []int32

	union    *HLL
	assigned []bool
	members  []int
	attr     map[string]attribution
}

// slotChange is one slot of one column to be overwritten with v.
type slotChange struct {
	col, slot int32
	v         uint64
}

// groupBucket is one entry of the per-slot hash table that groups the
// columns by the hash they hold at that slot: the columns holding key
// are groups[group]. An entry is live only while gen names the slot
// being grouped, so moving to the next slot empties the table without
// touching it.
type groupBucket struct {
	key   uint64
	gen   uint32
	group int32
}

// groupSpan is one group of a slot: count columns, which once laid out
// are grouped[end-count:end].
type groupSpan struct {
	count, end int32
}

func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// init readies an empty store for signatures of width slots.
func (w *sweepScratch) init(width int) {
	w.width, w.words = width, (width+63)/64
	w.colOf = make(map[string]int32)
	w.union = NewHLL(hllPrecision)
	w.attr = make(map[string]attribution)
}

// load brings the column of every candidate in w.cands up to date with
// its principal's signature, taking each principal's shard lock for the
// copy alone. A column given out this sweep copies every slot; a kept
// one copies the slots the principal's dirty mask names. A principal
// evicted since it was chosen is an empty signature, which matches
// nobody.
func (w *sweepScratch) load(d *Detector) {
	w.assign()
	for i, cand := range w.cands {
		c := int(w.col[i])
		s := d.shard(cand.name)
		s.mu.Lock()
		st, ok := s.entries[cand.name]
		switch {
		case !ok:
			for slot := 0; slot < w.width; slot++ {
				w.stage(c, slot, emptySlot)
			}
		case w.fresh[i]:
			for slot, v := range st.sig.slots {
				w.stage(c, slot, v)
			}
		default:
			for k, word := range st.dirty {
				for ; word != 0; word &= word - 1 {
					slot := k<<6 | bits.TrailingZeros64(word)
					w.stage(c, slot, st.sig.slots[slot])
				}
			}
		}
		if ok {
			st.dirty = slotMask{}
		}
		s.mu.Unlock()
	}
	w.commit()
}

// assign gives every candidate a column below len(w.cands). A candidate
// of the last sweep keeps its column, or moves into a free one if its
// column lies past the new end; the others take the columns nobody kept
// (fresh).
func (w *sweepScratch) assign() {
	m, n := len(w.cands), w.n
	if m > n {
		w.grow(m)
	}
	top := max(m, n)
	w.col = resized(w.col, m)
	w.fresh = resized(w.fresh, m)
	w.taken = resized(w.taken, top)
	taken := w.taken
	clear(taken)
	for i, cand := range w.cands {
		c, ok := w.colOf[cand.name]
		w.col[i], w.fresh[i] = c, !ok
		if ok {
			taken[c] = true
		}
	}
	// There are as many untaken columns below m as candidates that need
	// one there, so next never runs past m.
	free := 0
	next := func() int32 {
		for taken[free] {
			free++
		}
		taken[free] = true
		return int32(free)
	}
	for i, c := range w.col {
		if !w.fresh[i] && int(c) >= m {
			to := next()
			w.move(int(c), int(to), top)
			w.col[i] = to
		}
	}
	clear(w.colOf)
	for i, cand := range w.cands {
		if w.fresh[i] {
			w.col[i] = next()
		}
		w.colOf[cand.name] = w.col[i]
	}
	w.n = m
}

// grow makes columns n..m-1 empty — no filled slot, no match with any
// column — allocating room for them if there is none.
func (w *sweepScratch) grow(m int) {
	n, stride := w.n, w.stride
	if m > stride {
		w.relayout(m)
		stride = m
	}
	for s := 0; s < w.width; s++ {
		row := w.sigs[s*stride+n : s*stride+m]
		for c := range row {
			row[c] = emptySlot
		}
	}
	clear(w.filled[n*w.words : m*w.words])
	clear(w.fills[n:m])
	for a := 0; a < m; a++ {
		if a < n {
			clear(w.match[a*stride+n : a*stride+m])
		} else {
			clear(w.match[a*stride : a*stride+m])
		}
	}
}

// relayout moves the n columns in use into buffers of the given stride.
func (w *sweepScratch) relayout(stride int) {
	sigs := make([]uint64, w.width*stride)
	for s := 0; s < w.width; s++ {
		copy(sigs[s*stride:s*stride+w.n], w.sigs[s*w.stride:])
	}
	match := make([]uint16, stride*stride)
	for a := 0; a < w.n; a++ {
		copy(match[a*stride:a*stride+w.n], w.match[a*w.stride:])
	}
	filled := make([]uint64, stride*w.words)
	copy(filled, w.filled)
	fills := make([]uint16, stride)
	copy(fills, w.fills)
	w.sigs, w.match, w.filled, w.fills, w.stride = sigs, match, filled, fills, stride
}

// move copies column from, with its pair counts against the other
// columns below top, into column to.
func (w *sweepScratch) move(from, to, top int) {
	for s := 0; s < w.width; s++ {
		row := w.sigs[s*w.stride:]
		row[to] = row[from]
	}
	copy(w.filled[to*w.words:(to+1)*w.words], w.filled[from*w.words:(from+1)*w.words])
	w.fills[to] = w.fills[from]
	for d := 0; d < top; d++ {
		if d != from && d != to {
			m := w.match[from*w.stride+d]
			w.match[to*w.stride+d], w.match[d*w.stride+to] = m, m
		}
	}
}

// stage records that slot s of column c now holds v. Until rebuildAt
// changes are listed, commit applies them one by one; past it, listing
// stops and commit recounts every pair.
func (w *sweepScratch) stage(c, s int, v uint64) {
	if w.sigs[s*w.stride+c] == v {
		return
	}
	if w.rebuild {
		w.put(c, s, v)
		return
	}
	w.changes = append(w.changes, slotChange{col: int32(c), slot: int32(s), v: v})
	if len(w.changes) > w.rebuildAt() {
		w.rebuild = true
		for _, ch := range w.changes {
			w.put(int(ch.col), int(ch.slot), ch.v)
		}
		w.changes = w.changes[:0]
	}
}

// rebuildAt is how many changed slots a sweep applies one by one. On
// 256 candidates of scan_mixed traffic a change costs about 1 µs (one
// pass over its slot's hashes, mostly cache misses) and a rebuild about
// 3.5 ms, both growing with the candidates: 8×width changes cost at most
// about half a rebuild, and a sweep in which every column is new —
// about width changes per candidate — costs one rebuild.
func (w *sweepScratch) rebuildAt() int { return 8 * w.width }

// commit applies the staged changes to the pair counts. Applied in
// slot order, the changes of one slot share its row while it is in the
// cache, and the rows are read front to back.
func (w *sweepScratch) commit() {
	if w.rebuild {
		w.rebuild = false
		w.countMatches()
		return
	}
	slices.SortFunc(w.changes, func(a, b slotChange) int { return cmp.Compare(a.slot, b.slot) })
	for _, ch := range w.changes {
		w.set(int(ch.col), int(ch.slot), ch.v)
	}
	w.changes = w.changes[:0]
}

// set overwrites slot s of column c with v and moves the pair counts
// with it: one less for every column holding the old hash there, one
// more for every column holding the new one.
func (w *sweepScratch) set(c, s int, v uint64) {
	stride := w.stride
	row := w.sigs[s*stride : s*stride+w.n]
	old := row[c]
	row[c] = emptySlot
	for d, x := range row {
		if x != old && x != v || x == emptySlot {
			continue
		}
		if x == old {
			w.match[c*stride+d]--
			w.match[d*stride+c]--
		} else {
			w.match[c*stride+d]++
			w.match[d*stride+c]++
		}
	}
	w.put(c, s, v)
}

// put writes v into slot s of column c and keeps its filled bit; the
// pair counts are the caller's to keep.
func (w *sweepScratch) put(c, s int, v uint64) {
	w.sigs[s*w.stride+c] = v
	f, bit := &w.filled[c*w.words+s>>6], uint64(1)<<(s&63)
	switch {
	case v == emptySlot && *f&bit != 0:
		*f &^= bit
		w.fills[c]--
	case v != emptySlot && *f&bit == 0:
		*f |= bit
		w.fills[c]++
	}
}

// countMatches recounts match for every pair of columns in use. Slot by
// slot it groups the columns by the hash they hold there — a hash table
// keyed by that hash — lays the members of every group of two or more
// side by side, and adds one to every pair inside a group: exactly the
// pairs for which Jaccard's a == b holds at that slot, empty slots never
// entering the table. The cost is slots × columns probes plus one
// increment per real agreement. Members are listed in ascending order,
// so the increments for a member run along its own row of match; the
// lower triangle is copied from the upper one at the end.
func (w *sweepScratch) countMatches() {
	n, width, stride := w.n, w.width, w.stride
	clear(w.match)
	tsize := 2
	for tsize < 2*n {
		tsize <<= 1
	}
	w.table = resized(w.table, tsize)
	clear(w.table)
	table, mask := w.table, uint64(tsize-1)
	w.group, w.grouped = resized(w.group, n), resized(w.grouped, n)
	group, grouped := w.group, w.grouped
	for s := 0; s < width; s++ {
		col := w.sigs[s*stride : s*stride+n]
		gen := uint32(s + 1)
		groups := w.groups[:0]
		shared := false
		for c, v := range col {
			if v == emptySlot {
				group[c] = -1
				continue
			}
			// Every hash in this row shares its low bits (they chose the
			// slot), so the table is indexed by the high ones.
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
				row := w.match[int(i)*stride : int(i)*stride+n]
				for _, j := range members[a+1:] {
					row[j]++
				}
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			w.match[b*stride+a] = w.match[a*stride+b]
		}
	}
}

// jaccard returns what Signature.Jaccard returns for the signatures in
// columns a != b: the same two integers — agreeing slots, and slots
// filled in either — and the same division.
func (w *sweepScratch) jaccard(a, b int) float64 {
	match := w.match[a*w.stride+b]
	if match == 0 {
		return 0
	}
	fa, fb := w.filled[a*w.words:(a+1)*w.words], w.filled[b*w.words:(b+1)*w.words]
	used := 0
	for k, x := range fa {
		used += bits.OnesCount64(x | fb[k])
	}
	return float64(match) / float64(used)
}

// similar reports jaccard(a, b) >= threshold, for a threshold above 0.
// The slots filled in either column are at least those filled in the
// fuller one, and IEEE division gives no more for a larger divisor, so a
// pair whose match over that lower bound is already under the threshold
// is decided without counting the union.
func (w *sweepScratch) similar(a, b int, threshold float64) bool {
	match := w.match[a*w.stride+b]
	if match == 0 || float64(match)/float64(max(w.fills[a], w.fills[b])) < threshold {
		return false
	}
	return w.jaccard(a, b) >= threshold
}
