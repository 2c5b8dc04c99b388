// Package ostree implements an order-statistic index keyed by
// (weight, id), ordered by descending weight. It answers the question
// the delay policy asks on every query: "what is the popularity rank of
// this tuple right now?"
//
// Rank 1 is the item with the greatest weight; ties are broken by
// ascending id so ranks are total and deterministic.
//
// The index is array-backed: the (weight, id) entries live in sorted
// blocks of at most maxBlock entries whose concatenation is the rank
// order, next to a contiguous array of each block's last key (the block
// search never dereferences a block) and a Fenwick tree of block sizes
// (the entries ahead of a block). A lookup is two binary searches and a
// Fenwick prefix sum; an update removes one entry and inserts another
// with a memmove inside a block each — or, moving toward rank 1 within
// its block, shifts the entries in between with one — and allocates only
// when a block splits. An entry stores its weight as an order-reversing
// integer key, so (weight, id) compares as one 128-bit number and the
// searches run without a data-dependent branch.
//
// The id side — each tracked id's authoritative weight — is a second set
// of sorted blocks, ordered by id (idtable.go), so point reads (Weight,
// Contains, Len) never touch the rank blocks. Both sides are read
// through fingers, because the ids of a range scan are consecutive and
// tuples read together are incremented together: they carry the same
// weight, equal weights tie-break by id, and so their slots are
// neighbours in the id table and their entries neighbours in rank order.
// A finger remembers where the last search of its kind ended, block and
// offset, and is tried first; it is a hint checked against the arrays on
// every use, so splits, merges, drops, ScaleAll and FromWeights do not
// maintain it.
//
// A write moves its entry in place (Upsert, Add) or, when Add is told to
// defer, records the new weight in the id table and leaves the move to
// the next rank-structure read (Rank, RankUpTo, KthID, MaxWeight,
// Ascend), which applies all queued moves first. Both produce identical
// results. Deferral stays because it was measured against eager writes
// on the socket benchmark's scan workload: eager, mean read latency fell
// 12.9% but the trimmed tail rose 7.2% (behind in all six pairs) — a
// 1,000-row statement pays its own 1,000 moves instead of leaving them to
// the next quote — and BenchmarkAdaptiveObserveBatch went from 85 to
// 101–155 µs, because the idle candidate trackers of adaptive mode (§2.3)
// are never asked for a rank and, deferred, never move an entry. An id
// observed twice before the next quote also moves once. Queued moves are
// applied in arrival order: the index holds no state that depends on the
// order of operations, so nothing needs a sorted, reproducible drain.
//
// Positions are kept only where a read depends on them. A capped delay
// policy charges every rank from its cap rank L on the same price, so
// its read, RankUpTo(id, L), needs the exact rank below L and nothing
// past it. The first such read sets a horizon: the (weight, id) of the
// entry at rank horizonKeep·L+1. Entries that sort before it keep their
// place in the blocks; ids that sort at or after it live in the id table
// alone, as weights, and a write that starts and ends there stores the
// weight and nothing else — no queued move, no remove and insert. A write
// that crosses the horizon inserts into or removes from the blocks. The
// horizon moves four ways: it is set, and later cut back, by truncating
// the blocks to their first horizonKeep·L entries once more than
// horizonCut·L hold positions (fresh increments push ids past an old
// horizon, so the head grows); it is rebuilt from the id table when
// fewer than L entries hold positions (L grew with fmax, or the head was
// deleted); and ScaleAll drops it, giving every id its position back
// (FromWeights builds without one). Exact reads stay exact: Rank of an id
// past the horizon counts over the id table, O(Len); KthID and Ascend
// walk the blocks and then the ids past the horizon, sorted once,
// O(Len log Len); MaxWeight reads the head. None of them is on a query
// path.
package ostree

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

const (
	// maxBlock bounds a block's length; a full block splits in two
	// before it takes another entry.
	maxBlock = 128
	// fillBlock is the length bulk builds and merges fill a block to,
	// leaving room to grow before the first split.
	fillBlock = maxBlock * 3 / 4
	// minBlock is the length under which a block tries to merge into a
	// neighbour, which keeps the block count proportional to Len.
	minBlock = maxBlock / 4
	// A horizon set for limit L leaves horizonKeep·L entries holding
	// positions and is cut back to that once more than horizonCut·L do:
	// a truncation costs O(L) and follows more than 2L crossings, and L
	// must more than double before a rebuild from the id table is due.
	horizonKeep = 2
	horizonCut  = 4
)

// entry is one (weight, id) pair in rank order: key ascends as the weight
// descends, so entries sort ascending by (key, id).
type entry struct {
	key uint64
	id  uint64
}

// keyOf maps a weight to its sort key: the IEEE-754 bits made monotone
// (negatives flipped whole, the rest offset past them), then
// complemented so that greater weights get smaller keys. weightOf
// inverts it exactly.
func keyOf(w float64) uint64 {
	if w == 0 {
		w = 0 // -0 ties with +0
	}
	b := math.Float64bits(w)
	if b>>63 != 0 {
		return b
	}
	return ^(b | 1<<63)
}

func weightOf(key uint64) float64 {
	if key>>63 != 0 {
		return math.Float64frombits(key)
	}
	return math.Float64frombits(^key &^ (1 << 63))
}

// before returns 1 when e sorts before (key,id) and 0 otherwise: the
// borrow out of the 128-bit subtraction (e.key,e.id) − (key,id).
func (e entry) before(key, id uint64) uint64 {
	_, borrow := bits.Sub64(e.id, id, 0)
	_, borrow = bits.Sub64(e.key, key, borrow)
	return borrow
}

// countBefore returns how many entries of the sorted, non-empty es sort
// before (key,id): a binary search whose steps are arithmetic on the
// comparison's borrow bit instead of branches on it.
func countBefore(es []entry, key, id uint64) int {
	base, n := 0, len(es)
	for n > 1 {
		half := n >> 1
		base += half & -int(es[base+half-1].before(key, id))
		n -= half
	}
	return base + int(es[base].before(key, id))
}

// Tree is an order-statistic index; the zero value is an empty one. Tree
// is not safe for concurrent use (reads apply deferred writes and move
// fingers, so even read-read sharing needs external locking).
type Tree struct {
	// blocks are non-empty and sorted; last[b] is blocks[b]'s final
	// entry; fen is a 1-based Fenwick tree over len(blocks[b]).
	blocks [][]entry
	last   []entry
	fen    []int
	// One finger per kind of search, so a flush's removes (from the old
	// weights) and inserts (at the new ones) do not pull each other's away.
	rankAt, removeAt, insertAt finger
	// npos is how many entries the blocks hold.
	npos int
	ids  idTable
	// queue holds the moves of ids whose authoritative weight (their slot
	// in ids) has not yet been applied to the blocks, one per id; the slot
	// says where. flush drains it before any rank-structure read.
	queue []move
	// With cut set, only the ids whose (weight, id) sorts before hz hold
	// an entry in the blocks (or will, once the queue drains); the rest
	// live in ids alone. resets counts how many times the horizon was
	// set, cut back, rebuilt or dropped.
	hz     entry
	cut    bool
	resets int64
}

// finger is where the next search of one kind is expected to end: the
// block and offset the last one ended at, or the offset after it when a
// tied neighbour is expected there next. It is a hint that find checks
// against the arrays before using.
type finger struct{ b, i int }

// move is one queued move of id: away from the weight its resident entry
// still carries (resident false when there is none yet). Where to is the
// slot's weight when the queue drains, so a repeated deferred write is
// one store into the slot.
type move struct {
	id       uint64
	from     float64
	resident bool
}

// Pair is one id with its weight.
type Pair struct {
	ID     uint64
	Weight float64
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// FromWeights returns a tree holding exactly the given pairs, which must
// ascend strictly by id, built from one sort instead of len(ps) upserts.
func FromWeights(ps []Pair) *Tree {
	es := make([]entry, len(ps))
	for i, p := range ps {
		if i > 0 && ps[i-1].ID >= p.ID {
			panic("ostree: FromWeights needs strictly ascending ids")
		}
		es[i] = entry{keyOf(p.Weight), p.ID}
	}
	t := New()
	t.ids.build(ps)
	sortByKey(es) // es ascends by id, so this is (key, id) order
	t.build(es)
	return t
}

func sortEntries(es []entry) {
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})
}

// build replaces the blocks with es, which must be sorted. The blocks are
// carved out of one slab, each with room to grow to maxBlock.
func (t *Tree) build(es []entry) {
	t.npos = len(es)
	n := (len(es) + fillBlock - 1) / fillBlock
	slab := make([]entry, n*maxBlock)
	t.blocks, t.last = make([][]entry, n), make([]entry, n)
	for b := range t.blocks {
		k := copy(slab[b*maxBlock:(b+1)*maxBlock], es[:min(len(es), fillBlock)])
		es = es[k:]
		t.blocks[b] = slab[b*maxBlock : b*maxBlock+k : (b+1)*maxBlock]
		t.last[b] = t.blocks[b][k-1]
	}
	t.rebuildFen()
}

// Len returns the number of ids in the tree.
func (t *Tree) Len() int { return t.ids.n }

// Contains reports whether id is present.
func (t *Tree) Contains(id uint64) bool { return t.ids.get(id) != nil }

// Weight returns the stored weight for id and whether it is present.
func (t *Tree) Weight(id uint64) (float64, bool) {
	if s := t.ids.get(id); s != nil {
		return s.weight, true
	}
	return 0, false
}

// rebuildFen recomputes the Fenwick tree after the block list changed
// shape (a split, a merge or a dropped block): O(len(blocks)), paid once
// per ~maxBlock/2 updates.
func (t *Tree) rebuildFen() {
	n := len(t.blocks)
	t.fen = append(t.fen[:0], make([]int, n+1)...)
	for i := 1; i <= n; i++ {
		t.fen[i] += len(t.blocks[i-1])
		if j := i + i&-i; j <= n {
			t.fen[j] += t.fen[i]
		}
	}
}

func (t *Tree) fenAdd(b, delta int) {
	for i := b + 1; i < len(t.fen); i += i & -i {
		t.fen[i] += delta
	}
}

// ahead returns the number of entries in blocks before b.
func (t *Tree) ahead(b int) int {
	n := 0
	for i := b; i > 0; i -= i & -i {
		n += t.fen[i]
	}
	return n
}

// find returns the block and offset of the first entry that does not sort
// before (key,id) — where the pair is, or where it belongs. A pair past
// every entry belongs at the end of the final block. There must be a
// block. The finger's block is tried first, with two compares: it is the
// one when the pair sorts after the block ahead of it and not after its
// own last entry. Then its offset, with two more: the ids of a scan are
// tied neighbours, removed from one offset and inserted or ranked at
// successive ones.
func (t *Tree) find(key, id uint64, f *finger) (b, i int) {
	b = f.b
	if b >= len(t.last) || t.last[b].before(key, id) != 0 || b > 0 && t.last[b-1].before(key, id) == 0 {
		b = countBefore(t.last, key, id)
		if b == len(t.last) {
			return b - 1, len(t.blocks[b-1])
		}
	}
	blk, i := t.blocks[b], f.i
	if i > len(blk) || i > 0 && blk[i-1].before(key, id) == 0 || i < len(blk) && blk[i].before(key, id) != 0 {
		i = countBefore(blk, key, id)
	}
	f.b, f.i = b, i
	return b, i
}

func (t *Tree) insert(w float64, id uint64) {
	e := entry{keyOf(w), id}
	if len(t.blocks) == 0 {
		t.build([]entry{e})
		return
	}
	b, i := t.find(e.key, id, &t.insertAt)
	if len(t.blocks[b]) == maxBlock {
		const half = maxBlock / 2
		right := append(make([]entry, 0, maxBlock), t.blocks[b][half:]...)
		t.blocks[b] = t.blocks[b][:half]
		t.last[b] = t.blocks[b][half-1]
		t.blocks = slices.Insert(t.blocks, b+1, right)
		t.last = slices.Insert(t.last, b+1, right[len(right)-1])
		t.rebuildFen()
		if i > half {
			b, i = b+1, i-half
		}
	}
	blk := append(t.blocks[b], entry{}) // cap is maxBlock: never reallocates
	copy(blk[i+1:], blk[i:])
	blk[i] = e
	t.blocks[b] = blk
	t.last[b] = blk[len(blk)-1]
	t.fenAdd(b, 1)
	t.npos++
	t.insertAt = finger{b, i + 1}
}

func (t *Tree) remove(w float64, id uint64) {
	e := entry{keyOf(w), id}
	b, i := t.find(e.key, id, &t.removeAt)
	blk := t.blocks[b]
	if i == len(blk) || blk[i] != e {
		panic("ostree: id table and rank blocks disagree")
	}
	blk = blk[:i+copy(blk[i:], blk[i+1:])]
	t.blocks[b] = blk
	t.fenAdd(b, -1)
	t.npos--
	if len(blk) == 0 {
		t.drop(b)
		return
	}
	t.last[b] = blk[len(blk)-1]
	if len(blk) >= minBlock || len(t.blocks) == 1 {
		return
	}
	// Underfull: fold it and a neighbour into one block when the two fit
	// with room to spare.
	if lo := min(b, len(t.blocks)-2); len(t.blocks[lo])+len(t.blocks[lo+1]) <= fillBlock {
		t.blocks[lo] = append(t.blocks[lo], t.blocks[lo+1]...)
		t.last[lo] = t.last[lo+1]
		t.drop(lo + 1)
	}
}

// drop unlinks block b, whose entries are gone or live elsewhere.
func (t *Tree) drop(b int) {
	t.blocks = slices.Delete(t.blocks, b, b+1)
	t.last = slices.Delete(t.last, b, b+1)
	t.rebuildFen()
}

// Upsert sets id's weight, inserting it if absent, and moves its entry in
// place — unless a move for id is already queued, in which case the
// queued move simply picks up the new weight.
func (t *Tree) Upsert(id uint64, weight float64) {
	s, fresh := t.slot(id)
	t.move(s, fresh, weight, false)
}

// Add adds delta to id's weight (an absent id counts as weight 0 and is
// inserted) with one search for the slot instead of a Weight and a
// write. The entry moves in place or, when deferred, at the next
// structural read — O(1) per call after the slot is found. Bulk observe
// paths defer, so a k-write burst costs k slot updates, and one move per
// distinct id once somebody asks for a rank.
func (t *Tree) Add(id uint64, delta float64, deferred bool) {
	s, fresh := t.slot(id)
	t.move(s, fresh, s.weight+delta, deferred)
}

// slot returns id's slot, adding one of weight 0 (fresh) when id is not
// tracked yet.
func (t *Tree) slot(id uint64) (s *slot, fresh bool) {
	b, i, ok := t.ids.find(id)
	if ok {
		return &t.ids.blocks[b][i], false
	}
	return t.ids.insert(b, i, id), true
}

// move gives s the weight w and carries its entry along: now, or queued
// when deferred. A fresh slot has no entry yet, and neither has a slot
// past the horizon.
func (t *Tree) move(s *slot, fresh bool, w float64, deferred bool) {
	if !fresh && s.weight == w {
		return
	}
	old := s.weight
	s.weight = w
	if s.queued != 0 {
		return // the queued move picks w up when it drains
	}
	was, now := !fresh && t.positioned(old, s.id), t.positioned(w, s.id)
	switch {
	case !was && !now: // past the horizon before and after: the slot is all
	case deferred:
		t.queue = append(t.queue, move{id: s.id, from: old, resident: was})
		s.queued = uint32(len(t.queue))
	default:
		t.relocate(old, w, s.id, was, now)
	}
}

// relocate carries id's entry from weight from (when it has one there)
// to weight to (when it gets one). A move toward rank 1 whose new place
// is in the same block — a tracker's moves are toward rank 1, and on
// scan_mixed 58% of those past a flush stay in their block — shifts the
// entries in between by one instead of a remove and an insert.
func (t *Tree) relocate(from, to float64, id uint64, resident, positioned bool) {
	if resident && positioned {
		old, e := entry{keyOf(from), id}, entry{keyOf(to), id}
		b, i := t.find(old.key, id, &t.removeAt)
		if blk := t.blocks[b]; i < len(blk) && blk[i] == old && e.before(old.key, id) != 0 {
			j := 0
			if i > 0 {
				j = countBefore(blk[:i], e.key, id)
			}
			if j > 0 || b == 0 || t.last[b-1].before(e.key, id) != 0 {
				copy(blk[j+1:i+1], blk[j:i])
				blk[j] = e
				t.last[b] = blk[len(blk)-1]
				return
			}
		}
	}
	if resident {
		t.remove(from, id)
	}
	if positioned {
		t.insert(to, id)
	}
}

// positioned reports whether an id of weight w sorts before the horizon,
// and so holds an entry in the blocks once the queue has drained.
func (t *Tree) positioned(w float64, id uint64) bool {
	return !t.cut || entry{keyOf(w), id}.before(t.hz.key, t.hz.id) != 0
}

// Delete removes id if present and reports whether it was found.
func (t *Tree) Delete(id uint64) bool {
	b, i, ok := t.ids.find(id)
	if !ok {
		return false
	}
	s := t.ids.blocks[b][i]
	w, resident := s.weight, t.positioned(s.weight, id)
	if s.queued != 0 {
		k, last := int(s.queued-1), len(t.queue)-1
		w, resident = t.queue[k].from, t.queue[k].resident
		// Give the place in the queue to its last move.
		if k != last {
			t.queue[k] = t.queue[last]
			t.ids.get(t.queue[k].id).queued = s.queued
		}
		t.queue = t.queue[:last]
	}
	t.ids.remove(b, i)
	if resident {
		t.remove(w, id)
	}
	return true
}

// flush applies deferred writes to the blocks, in arrival order: a
// scan's moves walk the id table in step with the queue. A move whose
// slot now sorts past the horizon only leaves the blocks.
func (t *Tree) flush() {
	for _, m := range t.queue {
		s := t.ids.get(m.id)
		s.queued = 0
		t.relocate(m.from, s.weight, m.id, m.resident, t.positioned(s.weight, m.id))
	}
	t.queue = t.queue[:0]
}

// Rank returns the 1-based rank of id (rank 1 = greatest weight) and
// whether id is present. Absent ids report rank Len()+1: they sort after
// everything tracked, which is exactly how the delay policy treats a
// never-accessed tuple. Past the horizon the rank is counted, O(Len).
func (t *Tree) Rank(id uint64) (int, bool) {
	s := t.ids.get(id)
	if s == nil {
		return t.Len() + 1, false
	}
	w := s.weight
	t.flush()
	if !t.positioned(w, id) {
		r, e := 1, entry{keyOf(w), id}
		for _, blk := range t.ids.blocks {
			for _, o := range blk {
				r += int(entry{keyOf(o.weight), o.id}.before(e.key, e.id))
			}
		}
		return r, true
	}
	b, i := t.find(keyOf(w), id, &t.rankAt)
	t.rankAt.i++
	return t.ahead(b) + i + 1, true
}

// RankUpTo returns min(Rank(id), limit) and whether id is present; an
// absent id reports Len()+1, as Rank does. It is the read of a policy
// that prices every rank from limit on alike, and it keeps positions for
// the first horizonKeep·limit ids only (see the package doc), so past the
// horizon it costs no more than the id lookup. limit is taken to be at
// least 1 and at most Len()+1.
func (t *Tree) RankUpTo(id uint64, limit int) (int, bool) {
	s := t.ids.get(id)
	if s == nil {
		return t.Len() + 1, false
	}
	w := s.weight
	limit = t.fit(limit)
	if !t.positioned(w, id) {
		return limit, true // ranked after every positioned id, of which there are at least limit
	}
	b, i := t.find(keyOf(w), id, &t.rankAt)
	t.rankAt.i++
	return min(t.ahead(b)+i+1, limit), true
}

// fit applies the queued moves and then moves the horizon, if it must,
// so that at least limit ids hold positions and at most horizonCut·limit
// do. It returns limit clamped to 1..Len()+1.
func (t *Tree) fit(limit int) int {
	limit = min(max(limit, 1), t.Len()+1)
	t.flush()
	switch {
	case t.cut && t.npos < limit:
		t.setHorizon(t.byRank(true), horizonKeep*limit)
	case t.npos > horizonCut*limit:
		t.cutBack(horizonKeep * limit)
	}
	return limit
}

// cutBack truncates the blocks, which hold more than keep entries, to
// their first keep: they are rebuilt into a fresh slab and the rest are
// left to the id table.
func (t *Tree) cutBack(keep int) {
	es := make([]entry, 0, keep+maxBlock)
	for _, blk := range t.blocks {
		if len(es) > keep {
			break
		}
		es = append(es, blk...)
	}
	t.setHorizon(es, keep)
}

// setHorizon builds the blocks from the first keep of the sorted es and
// puts the horizon at the entry after them; without one, there is none.
// The queue must be empty.
func (t *Tree) setHorizon(es []entry, keep int) {
	t.cut = len(es) > keep
	if t.cut {
		t.hz, es = es[keep], es[:keep]
	}
	t.build(es)
	t.resets++
}

// byRank returns the id table's ids as entries in rank order, sorted
// afresh, O(Len log Len): all of them, or only those past the horizon.
func (t *Tree) byRank(all bool) []entry {
	var es []entry
	for _, blk := range t.ids.blocks {
		for _, s := range blk {
			if all || !t.positioned(s.weight, s.id) {
				es = append(es, entry{keyOf(s.weight), s.id})
			}
		}
	}
	sortEntries(es)
	return es
}

// past returns the ids past the horizon in rank order: the tail of the
// exact reads that walk beyond the blocks.
func (t *Tree) past() []entry {
	if !t.cut {
		return nil
	}
	return t.byRank(false)
}

// Ranked returns how many ids hold a position in the blocks: Len() until
// RankUpTo sets a horizon.
func (t *Tree) Ranked() int {
	t.flush()
	return t.npos
}

// HorizonResets returns how many times the horizon was set, cut back,
// rebuilt or dropped.
func (t *Tree) HorizonResets() int64 { return t.resets }

// KthID returns the id at rank k (1-based) and whether k is in range.
func (t *Tree) KthID(k int) (uint64, bool) {
	if k < 1 || k > t.Len() {
		return 0, false
	}
	t.flush()
	if k > t.npos {
		return t.past()[k-t.npos-1].id, true
	}
	// Fenwick descent: the last block with at most k-1 entries ahead.
	b, rest, n := 0, k-1, len(t.blocks)
	step := 1
	for step<<1 <= n {
		step <<= 1
	}
	for ; step > 0; step >>= 1 {
		if b+step <= n && t.fen[b+step] <= rest {
			b += step
			rest -= t.fen[b]
		}
	}
	return t.blocks[b][rest].id, true
}

// Ascend calls fn for each id in rank order (rank 1 first) until fn
// returns false.
func (t *Tree) Ascend(fn func(rank int, id uint64, weight float64) bool) {
	t.flush()
	rank := 0
	walk := func(es []entry) bool {
		for _, e := range es {
			rank++
			if !fn(rank, e.id, weightOf(e.key)) {
				return false
			}
		}
		return true
	}
	for _, blk := range t.blocks {
		if !walk(blk) {
			return
		}
	}
	walk(t.past())
}

// ScaleAll multiplies every weight by f (> 0). It is used when the
// decayed-counter increment is renormalized to avoid overflow. Scaling
// keeps the order of distinct weights but can round two of them to the
// same value, whose tie must then break by id: the same O(n) pass that
// scales notices an out-of-order neighbour, and only then are the
// entries sorted again. A horizon is dropped: every id gets its position
// back, rebuilt from the scaled id table.
func (t *Tree) ScaleAll(f float64) {
	if f <= 0 {
		panic("ostree: non-positive scale")
	}
	if t.cut {
		t.flush()
	}
	for _, blk := range t.ids.blocks {
		for i := range blk {
			blk[i].weight *= f
		}
	}
	if t.cut {
		t.setHorizon(t.byRank(true), t.Len())
		return
	}
	// Queued moves scale at both ends: the slots above and the weight the
	// resident entry carries, like the resident entries below.
	for i := range t.queue {
		t.queue[i].from *= f
	}
	sorted := true
	var prev entry // sorts before everything with a weight
	for b, blk := range t.blocks {
		for i := range blk {
			blk[i].key = keyOf(weightOf(blk[i].key) * f)
			if blk[i].before(prev.key, prev.id) != 0 {
				sorted = false
			}
			prev = blk[i]
		}
		t.last[b] = prev
	}
	if !sorted {
		es := slices.Concat(t.blocks...)
		sortEntries(es)
		t.build(es)
	}
}

// MaxWeight returns the greatest weight in the tree (0, false if empty).
func (t *Tree) MaxWeight() (float64, bool) {
	t.flush()
	switch {
	case t.npos > 0:
		return weightOf(t.blocks[0][0].key), true
	case t.Len() > 0:
		// Every position was deleted from under the horizon; the next
		// RankUpTo rebuilds them.
		return weightOf(t.past()[0].key), true
	}
	return 0, false
}
