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
// with a memmove inside a block each, and allocates only when a block
// splits. An entry stores its weight as an order-reversing integer key,
// so (weight, id) compares as one 128-bit number and the searches run
// without a data-dependent branch. Per-id weights are kept in a map, so
// point reads (Weight, Contains, Len) never touch the blocks.
//
// Writes come in two flavours: Upsert moves the entry in place, while
// UpsertDeferred records the new weight in O(1) and leaves the move to
// the next rank-structure read (Rank, KthID, MaxWeight, Ascend), which
// applies all queued moves first. Both produce identical results.
// Deferral stays because the batched observe path never reads ranks
// between its writes: an id observed twice before the next quote moves
// once, and a quote served entirely from the price cache (a positive
// epoch lag) never touches the blocks at all. Queued moves are applied
// in arrival order: the index holds no state that depends on the order
// of operations, so nothing needs a sorted, reproducible drain.
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

// Tree is an order-statistic index. The zero value is not usable; call
// New. Tree is not safe for concurrent use (reads apply deferred writes,
// so even read-read sharing needs external locking).
type Tree struct {
	// blocks are non-empty and sorted; last[b] is blocks[b]'s final
	// entry; fen is a 1-based Fenwick tree over len(blocks[b]).
	blocks  [][]entry
	last    []entry
	fen     []int
	weights map[uint64]float64
	// queue holds the moves of ids whose authoritative weight (weights)
	// has not yet been applied to the blocks, one per id, and queued maps
	// such an id to its slot. flush drains both before any rank-structure
	// read.
	queue  []move
	queued map[uint64]int
}

// move is one queued move: from the weight id's resident entry still
// carries (resident false when there is none yet) to its authoritative
// weight — a copy of weights[id], so that a flush walks only this queue
// and never reads the large map, and a repeated deferred write is one
// store into a slot.
type move struct {
	id       uint64
	from, to float64
	resident bool
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{
		weights: make(map[uint64]float64),
		queued:  make(map[uint64]int),
	}
}

// FromWeights returns a tree holding exactly the given id → weight pairs,
// built from one sort instead of len(weights) upserts. It takes ownership
// of the map.
func FromWeights(weights map[uint64]float64) *Tree {
	es := make([]entry, 0, len(weights))
	for id, w := range weights {
		es = append(es, entry{keyOf(w), id})
	}
	t := &Tree{weights: weights, queued: make(map[uint64]int)}
	t.build(es)
	return t
}

// build replaces the blocks with es, sorting it first. The blocks are
// carved out of one slab, each with room to grow to maxBlock.
func (t *Tree) build(es []entry) {
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})
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
func (t *Tree) Len() int { return len(t.weights) }

// Contains reports whether id is present.
func (t *Tree) Contains(id uint64) bool {
	_, ok := t.weights[id]
	return ok
}

// Weight returns the stored weight for id and whether it is present.
func (t *Tree) Weight(id uint64) (float64, bool) {
	w, ok := t.weights[id]
	return w, ok
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
// block.
func (t *Tree) find(key, id uint64) (b, i int) {
	b = countBefore(t.last, key, id)
	if b == len(t.last) {
		return b - 1, len(t.blocks[b-1])
	}
	return b, countBefore(t.blocks[b], key, id)
}

func (t *Tree) insert(w float64, id uint64) {
	e := entry{keyOf(w), id}
	if len(t.blocks) == 0 {
		t.build([]entry{e})
		return
	}
	b, i := t.find(e.key, id)
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
}

func (t *Tree) remove(w float64, id uint64) {
	e := entry{keyOf(w), id}
	b, i := t.find(e.key, id)
	blk := t.blocks[b]
	if i == len(blk) || blk[i] != e {
		panic("ostree: weights map and blocks disagree")
	}
	blk = blk[:i+copy(blk[i:], blk[i+1:])]
	t.blocks[b] = blk
	t.fenAdd(b, -1)
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
	old, ok := t.weights[id]
	if ok && old == weight {
		return
	}
	t.weights[id] = weight
	if i, deferred := t.queued[id]; deferred {
		t.queue[i].to = weight
		return
	}
	if ok {
		t.remove(old, id)
	}
	t.insert(weight, id)
}

// UpsertDeferred is Upsert with the move queued for the next structural
// read instead of applied in place — O(1) per call. Bulk observe paths
// use it so a k-write burst costs k map updates, and one move per
// distinct id once somebody asks for a rank.
func (t *Tree) UpsertDeferred(id uint64, weight float64) {
	old, ok := t.weights[id]
	if ok && old == weight {
		return
	}
	i, deferred := t.queued[id]
	if !deferred {
		i = len(t.queue)
		t.queue = append(t.queue, move{id: id, from: old, resident: ok})
		t.queued[id] = i
	}
	t.queue[i].to = weight
	t.weights[id] = weight
}

// Delete removes id if present and reports whether it was found.
func (t *Tree) Delete(id uint64) bool {
	w, ok := t.weights[id]
	if !ok {
		return false
	}
	delete(t.weights, id)
	if i, deferred := t.queued[id]; deferred {
		m := t.queue[i]
		// Give the slot to the queue's last move.
		last := len(t.queue) - 1
		t.queue[i] = t.queue[last]
		t.queued[t.queue[i].id] = i
		t.queue = t.queue[:last]
		delete(t.queued, id)
		if !m.resident {
			return true
		}
		w = m.from
	}
	t.remove(w, id)
	return true
}

// flush applies deferred Upserts to the blocks.
func (t *Tree) flush() {
	if len(t.queue) == 0 {
		return
	}
	for _, m := range t.queue {
		if m.resident {
			t.remove(m.from, m.id)
		}
		t.insert(m.to, m.id)
	}
	t.queue = t.queue[:0]
	clear(t.queued)
}

// Rank returns the 1-based rank of id (rank 1 = greatest weight) and
// whether id is present. Absent ids report rank Len()+1: they sort after
// everything tracked, which is exactly how the delay policy treats a
// never-accessed tuple.
func (t *Tree) Rank(id uint64) (int, bool) {
	w, ok := t.weights[id]
	if !ok {
		return t.Len() + 1, false
	}
	t.flush()
	b, i := t.find(keyOf(w), id)
	return t.ahead(b) + i + 1, true
}

// KthID returns the id at rank k (1-based) and whether k is in range.
func (t *Tree) KthID(k int) (uint64, bool) {
	if k < 1 || k > t.Len() {
		return 0, false
	}
	t.flush()
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
	for _, blk := range t.blocks {
		for _, e := range blk {
			rank++
			if !fn(rank, e.id, weightOf(e.key)) {
				return
			}
		}
	}
}

// ScaleAll multiplies every weight by f (> 0). It is used when the
// decayed-counter increment is renormalized to avoid overflow. Scaling
// keeps the order of distinct weights but can round two of them to the
// same value, whose tie must then break by id: the same O(n) pass that
// scales notices an out-of-order neighbour, and only then are the
// entries sorted again.
func (t *Tree) ScaleAll(f float64) {
	if f <= 0 {
		panic("ostree: non-positive scale")
	}
	for id, w := range t.weights {
		t.weights[id] = w * f
	}
	// Queued moves scale at both ends, like the map above and the resident
	// entries below.
	for i := range t.queue {
		t.queue[i].from *= f
		t.queue[i].to *= f
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
		t.build(slices.Concat(t.blocks...))
	}
}

// MaxWeight returns the greatest weight in the tree (0, false if empty).
func (t *Tree) MaxWeight() (float64, bool) {
	t.flush()
	if len(t.blocks) == 0 {
		return 0, false
	}
	return weightOf(t.blocks[0][0].key), true
}
