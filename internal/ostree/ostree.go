// Package ostree implements an order-statistic index keyed by
// (weight, id), ordered by descending weight: rank 1 is the greatest
// weight, ties break by ascending id. It answers the question the delay
// policy asks on every query: "what is the popularity rank of this tuple
// right now?"
//
// The id table (idtable.go) holds each id's authoritative weight. The ids
// that hold a position have a (weight, id) entry — its weight as an
// order-reversing integer key, so an entry compares as one 128-bit
// number — in the head, one flat sorted array, or in a small sorted
// delta: in, the positioned entries the head lacks, and out, the head
// entries that no longer hold a position. A rank is one plus the entries
// ahead: those of the head and of in, less those of out. Each slot
// remembers its entry's head index, so a read finds it there or a few
// places off. A move that shifts at most shiftMax entries is made in the
// head with one memmove (a scan's tuples move a few places up, past the
// ties they just left); a longer one goes to the delta, which folds into
// the head in one merge once it outgrows foldAt, and before a read that
// walks the order. Add can defer its move to the next rank read, so an
// id written k times moves once, and a tracker never asked for a rank
// never moves one.
//
// Positions are kept only where a read depends on them. A capped policy
// prices every rank from its cap rank L on alike, so RankUpTo(id, L)
// needs the exact rank below L only. The first such read sets a horizon,
// the (weight, id) at rank horizonKeep·L+1; ids at or after it live in
// the id table alone. The head is cut back to horizonKeep·L once more
// than horizonCut·L hold positions, rebuilt from the id table when fewer
// than L do, and given every id back by ScaleAll. Exact reads past the
// horizon (Rank, KthID, Ascend) sort the ids there, off the query path.
package ostree

import (
	"math"
	"math/bits"
	"slices"
)

const (
	// A horizon set for limit L keeps horizonKeep·L positions and is cut
	// back to that past horizonCut·L: a cut follows more than 2L
	// crossings, and L must more than double before a rebuild.
	horizonKeep = 2
	horizonCut  = 4
	// A move shifting at most shiftMax entries (4 KiB) is made in the
	// head; a scan's shift a few dozen. The delta folds once it holds
	// more than foldAt entries (see there), and at least foldMin.
	shiftMax = 256
	foldMin  = 64
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

// before returns 1 when e sorts before x and 0 otherwise: the borrow out
// of the 128-bit subtraction (e.key,e.id) − (x.key,x.id).
func (e entry) before(x entry) uint64 {
	_, borrow := bits.Sub64(e.id, x.id, 0)
	_, borrow = bits.Sub64(e.key, x.key, borrow)
	return borrow
}

// countBefore returns how many entries of the sorted es sort before x: a
// binary search whose steps are arithmetic on the comparison's borrow bit
// instead of branches on it.
func countBefore(es []entry, x entry) int {
	if len(es) == 0 {
		return 0
	}
	base, n := 0, len(es)
	for n > 1 {
		half := n >> 1
		base += half & -int(es[base+half-1].before(x))
		n -= half
	}
	return base + int(es[base].before(x))
}

// lead returns how many entries of the sorted es sort before x, searching
// from the front in doubling steps: O(log d) in the answer d.
func lead(es []entry, x entry) int {
	hi := 1
	for hi <= len(es) && es[hi-1].before(x) != 0 {
		hi <<= 1
	}
	lo, top := hi>>1, min(hi-1, len(es))
	return lo + countBefore(es[lo:top], x)
}

// trail returns how many entries at the end of the sorted es do not sort
// before x, searching from the back in doubling steps: lead's mirror.
func trail(es []entry, x entry) int {
	hi := 1
	for hi <= len(es) && es[len(es)-hi].before(x) == 0 {
		hi <<= 1
	}
	lo, top := hi>>1, min(hi-1, len(es))
	return top - countBefore(es[len(es)-top:len(es)-lo], x)
}

// merge appends to dst the sorted union of the sorted a and plus, less
// every entry of the sorted minus that a holds, and returns it with the
// entries of minus that a did not hold (written over minus). Each step
// takes, from the list whose first entry sorts first (minus on a tie),
// every entry up to the others' first, found by galloping: a fold copies
// the head in runs between the delta's entries.
func merge(dst, a, plus, minus []entry) (merged, missed []entry) {
	missed = minus[:0]
	// upTo counts the entries of es before those the others start with.
	upTo := func(es, xs, ys []entry) int {
		n := len(es)
		if len(xs) > 0 {
			n = lead(es, xs[0])
		}
		if len(ys) > 0 {
			n = min(n, lead(es[:n], ys[0]))
		}
		return n
	}
	for len(plus) > 0 || len(minus) > 0 {
		switch {
		case len(minus) > 0 && (len(a) == 0 || a[0].before(minus[0]) == 0) && (len(plus) == 0 || plus[0].before(minus[0]) == 0):
			if len(a) > 0 && a[0] == minus[0] {
				for len(a) > 0 && len(minus) > 0 && a[0] == minus[0] {
					a, minus = a[1:], minus[1:]
				}
				continue
			}
			n := max(upTo(minus, a, plus), 1) // an entry of minus tied with plus[0] goes first
			missed = append(missed, minus[:n]...)
			minus = minus[n:]
		case len(plus) > 0 && (len(a) == 0 || plus[0].before(a[0]) != 0):
			n := upTo(plus, a, minus)
			dst = append(dst, plus[:n]...)
			plus = plus[n:]
		default:
			n := max(upTo(a, plus, minus), 1) // a[0] tied with plus[0]
			dst = append(dst, a[:n]...)
			a = a[n:]
		}
	}
	return append(dst, a...), missed
}

// Tree is an order-statistic index; the zero value is an empty one. Tree
// is not safe for concurrent use (reads apply deferred writes and move
// the id table's finger, so even read-read sharing needs external
// locking).
type Tree struct {
	// The positions are head + in − out; a fold writes into spare. ins
	// and outs hold the moves too long to make in the head, for apply,
	// whose merges write into tmp. last is where the last seek ended,
	// placed where the last move made in the head put its entry.
	head, spare, in, out, ins, outs, tmp []entry
	last, placed                         int
	ids                                  idTable
	// queue holds one move per id whose weight (its slot in ids) has not
	// reached the positions; the slot says where. A rank read drains it.
	queue []move
	// With cut set, only the ids whose (weight, id) sorts before hz hold
	// a position; resets counts the horizon's moves.
	hz     entry
	cut    bool
	resets int64
}

// move is one queued move of id, away from the weight its positioned
// entry carries (resident false when there is none) to its slot's.
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
	sortEntries(es, nil)
	t.head = es
	return t
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

// npos returns how many ids hold a position once the queue has drained.
func (t *Tree) npos() int { return len(t.head) + len(t.in) - len(t.out) }

// rankOf returns the 1-based rank of s's entry, which holds a position,
// and leaves its head index in s.at.
func (t *Tree) rankOf(s *slot) int {
	e := entry{keyOf(s.weight), s.id}
	p := t.seek(e, int(s.at))
	s.at = uint32(p)
	return p + countBefore(t.in, e) - countBefore(t.out, e) + 1
}

// seek returns how many head entries sort before e: at, a slot's head
// index, when e is there; else near where the last seek ended (a scan's
// next tied id is its neighbour), then near at, then by binary search.
func (t *Tree) seek(e entry, at int) int {
	p := at
	if at >= len(t.head) || t.head[at] != e {
		if p = t.near(e, t.last); p < 0 {
			if p = t.near(e, at); p < 0 {
				p = countBefore(t.head, e)
			}
		}
	}
	t.last = p
	return p
}

// near returns how many head entries sort before e, galloping out from
// index at, or -1 when that is more than shiftMax away.
func (t *Tree) near(e entry, at int) int {
	h := t.head
	if at > len(h) {
		return -1
	}
	if at < len(h) && h[at].before(e) != 0 {
		w := h[at+1 : min(len(h), at+1+shiftMax)]
		if n := lead(w, e); n < len(w) || at+1+n == len(h) {
			return at + 1 + n
		}
		return -1
	}
	lo := max(0, at-shiftMax)
	if n := trail(h[lo:at], e); n < at-lo || lo == 0 {
		return at - n
	}
	return -1
}

// relocate carries s's entry from x (when resident) to y (when
// positioned): in the head when x is there and at most shiftMax entries
// shift, else through outs and ins, for apply.
func (t *Tree) relocate(s *slot, x, y entry, resident, positioned bool) {
	if resident && positioned && x == y {
		return
	}
	h := t.head
	switch {
	case resident:
		p := t.seek(x, int(s.at))
		if p == len(h) || h[p] != x {
			break // x entered since the last fold: it is in in
		}
		if !positioned {
			if len(h)-p <= shiftMax {
				t.head = slices.Delete(h, p, p+1)
				return
			}
			break
		}
		// y goes right after the last move's entry, as a scan's next tied
		// id does, or near x.
		q := t.placed + 1
		if q > len(h) || h[q-1].before(y) == 0 || q < len(h) && h[q].before(y) != 0 {
			q = t.near(y, p)
		}
		switch {
		case q < 0 || q < p-shiftMax || q > p+shiftMax || t.stale(y): // too far, or out has y
		case q <= p: // toward rank 1: the entries between shift down a place
			copy(h[q+1:p+1], h[q:p])
			h[q], s.at, t.placed = y, uint32(q), q
			return
		default:
			copy(h[p:q-1], h[p+1:q])
			h[q-1], s.at, t.placed = y, uint32(q-1), q-1
			return
		}
	case positioned:
		if q := t.near(y, len(h)); q >= 0 && !t.stale(y) {
			t.head, s.at = slices.Insert(h, q, y), uint32(q)
			return
		}
	}
	if resident {
		t.outs = append(t.outs, x)
	}
	if positioned {
		t.ins = append(t.ins, y)
	}
}

// stale reports whether out holds y: a copy of y in the head lost its
// position, and y must take it back (apply does), not sit next to it.
func (t *Tree) stale(y entry) bool {
	_, ok := locate(t.out, y)
	return ok
}

// locate returns where x is, or belongs, in the sorted es, and whether
// es holds it.
func locate(es []entry, x entry) (int, bool) {
	i := countBefore(es, x)
	return i, i < len(es) && es[i] == x
}

// toggle takes x out of the sorted *from when it holds x, and else puts
// it into the sorted *to.
func toggle(from, to *[]entry, x entry) {
	if i, ok := locate(*from, x); ok {
		*from = slices.Delete(*from, i, i+1)
	} else {
		i, _ = locate(*to, x)
		*to = slices.Insert(*to, i, x)
	}
}

// apply carries the moves relocate left in outs (entries that lose their
// position) and ins (entries that gain one) into the delta: an out that
// entered since the last fold leaves in, the others join out; an in whose
// stale copy out holds takes it back, the others join in. So a head entry
// equal to a positioned one is that one. A batch is sorted and merged in
// one pass over each list. Then the delta folds if it outgrew foldAt.
func (t *Tree) apply() {
	n := len(t.ins) + len(t.outs)
	switch {
	case n == 0:
		return
	case n <= 2: // one move: a memmove into each list, not a copy of both
		for _, x := range t.outs {
			toggle(&t.in, &t.out, x)
		}
		for _, y := range t.ins {
			toggle(&t.out, &t.in, y)
		}
	default:
		t.tmp = sortEntries(t.outs, t.tmp)
		t.tmp = sortEntries(t.ins, t.tmp)
		var left, fresh []entry
		t.tmp, left = merge(t.tmp[:0], t.in, nil, t.outs)
		t.in, t.tmp = t.tmp, t.in
		t.tmp, fresh = merge(t.tmp[:0], t.out, left, t.ins)
		t.out, t.tmp = t.tmp, t.out
		t.tmp, _ = merge(t.tmp[:0], t.in, fresh, nil)
		t.in, t.tmp = t.tmp, t.in
	}
	t.ins, t.outs = t.ins[:0], t.outs[:0]
	if len(t.in)+len(t.out) > t.foldAt(n) {
		t.fold()
	}
}

// foldAt is the most entries the delta may hold after a batch of n: a
// fold copies the head and a batch the delta, and 2·√(n·len(head)) keeps
// their sum near its least — a few hundred for write_mix's one move per
// statement, ten thousand for an uncapped 200k-entry index's scans.
func (t *Tree) foldAt(n int) int {
	return max(foldMin, 2*int(math.Sqrt(float64(n)*float64(len(t.head)))))
}

// fold merges the delta into the head in one sequential pass.
func (t *Tree) fold() {
	if len(t.in)+len(t.out) == 0 {
		return
	}
	var missed []entry
	t.spare, missed = merge(t.spare[:0], t.head, t.in, t.out)
	if len(missed) != 0 {
		panic("ostree: id table and rank index disagree")
	}
	t.head, t.spare = t.spare, t.head
	t.in, t.out = t.in[:0], t.out[:0]
}

// settle leaves the head alone holding the positions.
func (t *Tree) settle() {
	t.drain()
	t.fold()
}

// Upsert sets id's weight, inserting it if absent, and moves its entry
// now, unless a move for id is queued: that one picks the weight up.
func (t *Tree) Upsert(id uint64, weight float64) {
	s, fresh := t.slot(id)
	t.move(s, fresh, weight, false)
}

// Add adds delta to id's weight (an absent id counts as weight 0 and is
// inserted) with one search for the slot. The entry moves now or, when
// deferred, at the next rank read: bulk observe paths defer, so a k-write
// burst costs k slot updates and one move per distinct id.
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

// move gives s the weight w and carries its entry along, now or queued.
// A fresh slot has no entry yet, nor has a slot past the horizon.
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
		t.relocate(s, entry{keyOf(old), s.id}, entry{keyOf(w), s.id}, was, now)
		t.apply()
	}
}

// positioned reports whether an id of weight w sorts before the horizon,
// and so holds a position once the queue has drained.
func (t *Tree) positioned(w float64, id uint64) bool {
	return !t.cut || entry{keyOf(w), id}.before(t.hz) != 0
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
	t.relocate(&t.ids.blocks[b][i], entry{keyOf(w), id}, entry{}, resident, false)
	t.ids.remove(b, i)
	t.apply()
	return true
}

// drain applies the deferred writes in arrival order: a scan's walk the
// id table and the head in step.
func (t *Tree) drain() {
	for _, m := range t.queue {
		s := t.ids.get(m.id)
		s.queued = 0
		t.relocate(s, entry{keyOf(m.from), m.id}, entry{keyOf(s.weight), m.id}, m.resident, t.positioned(s.weight, m.id))
	}
	t.queue = t.queue[:0]
	t.apply()
}

// Rank returns the 1-based rank of id (rank 1 = greatest weight) and
// whether id is present. Absent ids report rank Len()+1: they sort after
// everything tracked, which is exactly how the delay policy treats a
// never-accessed tuple. Past the horizon it sorts the ids there, O(Len).
func (t *Tree) Rank(id uint64) (int, bool) {
	s := t.ids.get(id)
	if s == nil {
		return t.Len() + 1, false
	}
	t.drain()
	if !t.positioned(s.weight, id) {
		return t.npos() + 1 + countBefore(t.byRank(false), entry{keyOf(s.weight), id}), true
	}
	return t.rankOf(s), true
}

// RankUpTo returns min(Rank(id), limit) and whether id is present; an
// absent id reports Len()+1, as Rank does. It is the read of a policy
// that prices every rank from limit on alike, so it keeps positions for
// the first horizonKeep·limit ids only (see the package doc). limit is
// taken to be at least 1 and at most Len()+1.
func (t *Tree) RankUpTo(id uint64, limit int) (int, bool) {
	s := t.ids.get(id)
	if s == nil {
		return t.Len() + 1, false
	}
	limit = t.fit(limit)
	if !t.positioned(s.weight, id) {
		return limit, true // ranked after every positioned id, of which there are at least limit
	}
	return min(t.rankOf(s), limit), true
}

// fit applies the queued moves and then moves the horizon, if it must,
// so that at least limit ids hold positions and at most horizonCut·limit
// do. It returns limit clamped to 1..Len()+1.
func (t *Tree) fit(limit int) int {
	limit = min(max(limit, 1), t.Len()+1)
	t.drain()
	switch {
	case t.cut && t.npos() < limit:
		t.setHorizon(t.byRank(true), horizonKeep*limit)
	case t.npos() > horizonCut*limit:
		t.fold()
		t.setHorizon(t.head, horizonKeep*limit)
	}
	return limit
}

// setHorizon makes the first keep of the sorted es the head and puts the
// horizon at the entry after them; without one, there is none. The queue
// must be empty; the delta is dropped, es being the whole of the order.
func (t *Tree) setHorizon(es []entry, keep int) {
	t.cut = len(es) > keep
	if t.cut {
		t.hz, es = es[keep], es[:keep]
	}
	if cap(t.head) > 4*len(es) {
		// Sized for a far larger head (before a cut, or a ScaleAll): let it go.
		t.head, t.spare = nil, nil
	}
	t.head = append(t.head[:0], es...)
	t.in, t.out = t.in[:0], t.out[:0]
	t.resets++
}

// byRank returns the id table's ids as entries in rank order, sorted
// afresh in O(Len) radix passes: all of them, or those past the horizon.
func (t *Tree) byRank(all bool) []entry {
	var es []entry
	if !all && !t.cut {
		return nil
	}
	for _, blk := range t.ids.blocks {
		for _, s := range blk {
			if all || !t.positioned(s.weight, s.id) {
				es = append(es, entry{keyOf(s.weight), s.id})
			}
		}
	}
	sortEntries(es, nil)
	return es
}

// Ranked returns how many ids hold a position: Len() until RankUpTo sets
// a horizon.
func (t *Tree) Ranked() int {
	t.settle()
	return len(t.head)
}

// HorizonResets returns how many times the horizon was set, cut back,
// rebuilt or dropped.
func (t *Tree) HorizonResets() int64 { return t.resets }

// KthID returns the id at rank k (1-based) and whether k is in range.
func (t *Tree) KthID(k int) (uint64, bool) {
	if k < 1 || k > t.Len() {
		return 0, false
	}
	t.settle()
	if k > len(t.head) {
		return t.byRank(false)[k-len(t.head)-1].id, true
	}
	return t.head[k-1].id, true
}

// Ascend calls fn for each id in rank order (rank 1 first) until fn
// returns false.
func (t *Tree) Ascend(fn func(rank int, id uint64, weight float64) bool) {
	t.settle()
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
	if walk(t.head) {
		walk(t.byRank(false))
	}
}

// ScaleAll multiplies every weight by f (> 0). It is used when the
// decayed-counter increment is renormalized to avoid overflow. Scaling
// keeps the order of distinct weights but can round two of them to the
// same value, whose tie must then break by id: the same O(n) pass that
// scales notices an out-of-order neighbour, and only then is the head
// sorted again. A horizon is dropped: every id gets its position back,
// rebuilt from the scaled id table.
func (t *Tree) ScaleAll(f float64) {
	if f <= 0 {
		panic("ostree: non-positive scale")
	}
	t.settle()
	for _, blk := range t.ids.blocks {
		for i := range blk {
			blk[i].weight *= f
		}
	}
	if t.cut {
		t.setHorizon(t.byRank(true), t.Len())
		return
	}
	sorted := true
	for i := range t.head {
		t.head[i].key = keyOf(weightOf(t.head[i].key) * f)
		if i > 0 && t.head[i].before(t.head[i-1]) != 0 {
			sorted = false
		}
	}
	if !sorted {
		t.tmp = sortEntries(t.head, t.tmp)
	}
}

// MaxWeight returns the greatest weight in the tree (0, false if empty).
// It reads in, and the head past its leading entries that out holds —
// unless in leads, as it does when the hottest ids just moved.
func (t *Tree) MaxWeight() (float64, bool) {
	t.drain()
	i := 0
	for i < len(t.out) && (len(t.in) == 0 || t.head[0].before(t.in[0]) != 0) && t.head[i] == t.out[i] {
		i++
	}
	switch {
	case len(t.in) > 0 && (i == len(t.head) || t.in[0].before(t.head[i]) != 0):
		return weightOf(t.in[0].key), true
	case i < len(t.head):
		return weightOf(t.head[i].key), true
	case t.Len() > 0:
		// Every position was deleted from under the horizon; the next
		// RankUpTo rebuilds them.
		return weightOf(t.byRank(false)[0].key), true
	}
	return 0, false
}
