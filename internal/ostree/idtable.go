package ostree

import (
	"cmp"
	"slices"
)

// An id block holds at most maxBlock slots; a full one splits in two,
// and one under minBlock folds into a neighbour when the two fit in
// fillBlock, which keeps the block count proportional to Len.
const (
	maxBlock  = 128
	fillBlock = maxBlock * 3 / 4
	minBlock  = maxBlock / 4
)

// slot is one tracked id in the id table: its authoritative weight,
// while a move to that weight waits in Tree.queue, where, and where its
// entry was in the head when last read or moved.
type slot struct {
	id     uint64
	weight float64
	// queued is 1 + the index of id's move in Tree.queue, 0 when none
	// waits. 32 bits keep a slot at 24 bytes; a queue never outgrows
	// them, because it holds at most one move per tracked id.
	queued uint32
	at     uint32 // a hint: the head moves entries without telling their slots
}

// idTable is the id side of the index: every tracked id's slot, in
// sorted blocks of at most maxBlock slots whose concatenation ascends by
// id, behind a contiguous array of each block's first id. A weight
// change never moves a slot, so the table only changes shape when an id
// is added or removed.
//
// Reads go through a finger, the position the last search ended at: ids
// that arrive ascending (a range scan's batch) cost a step each after
// the first, and walk memory in order. The finger is a hint that every
// use checks against the table's bounds and the id it finds there, so
// nothing that reshapes the table has to maintain it.
type idTable struct {
	blocks [][]slot
	first  []uint64
	n      int
	fb, fi int
}

// at returns the slot at block b, offset i, nil when there is none.
func (t *idTable) at(b, i int) *slot {
	if b < len(t.blocks) && i < len(t.blocks[b]) {
		return &t.blocks[b][i]
	}
	return nil
}

// find returns the block and offset of id's slot and true — or, with
// false, where the slot belongs (past the end of a block when id sorts
// after all of it). An empty table reports 0, 0.
func (t *idTable) find(id uint64) (b, i int, ok bool) {
	// The finger: the slot after the one found last, then that slot again.
	b, i = t.fb, t.fi+1
	if b < len(t.blocks) && i >= len(t.blocks[b]) {
		b, i = b+1, 0
	}
	if s := t.at(b, i); s != nil && s.id == id {
		t.fb, t.fi = b, i
		return b, i, true
	}
	if s := t.at(t.fb, t.fi); s != nil && s.id == id {
		return t.fb, t.fi, true
	}
	if len(t.blocks) == 0 {
		return 0, 0, false
	}
	// The last block that starts at or before id, then id's place in it.
	// Branchy searches on purpose: this path runs on cold memory (a point
	// query's id), where running ahead of a predicted branch overlaps the
	// misses; countBefore's branch-free form measured slower end to end.
	b, ok = slices.BinarySearch(t.first, id)
	i = 0
	if !ok {
		b = max(b-1, 0)
		i, ok = slices.BinarySearchFunc(t.blocks[b], id, func(s slot, id uint64) int {
			return cmp.Compare(s.id, id)
		})
	}
	t.fb, t.fi = b, i
	return b, i, ok
}

// get returns id's slot, nil when id is not tracked. The pointer is good
// until the table next gains or loses an id.
func (t *idTable) get(id uint64) *slot {
	if b, i, ok := t.find(id); ok {
		return &t.blocks[b][i]
	}
	return nil
}

// insert adds a zero slot for id, which is absent, at the place find
// reported for it.
func (t *idTable) insert(b, i int, id uint64) *slot {
	if len(t.blocks) == 0 {
		t.blocks, t.first = [][]slot{make([]slot, 0, maxBlock)}, []uint64{id}
	}
	if i == maxBlock && b+1 < len(t.blocks) && len(t.blocks[b+1]) < maxBlock {
		// id falls between a full block and a next one with room: it
		// becomes the next one's first, so ids added in descending order
		// fill that block instead of starting a block each.
		b, i = b+1, 0
	}
	if blk := t.blocks[b]; len(blk) == maxBlock {
		// A full block splits in two — unless id goes past its end: then the
		// block stays packed and id starts the next one, so ids added in
		// ascending order fill the table as tightly as a bulk build.
		cut, start := maxBlock/2, id
		if i == maxBlock {
			cut = maxBlock
		} else {
			start = blk[cut].id
		}
		t.blocks[b] = blk[:cut]
		t.blocks = slices.Insert(t.blocks, b+1, append(make([]slot, 0, maxBlock), blk[cut:]...))
		t.first = slices.Insert(t.first, b+1, start)
		if i > maxBlock/2 {
			b, i = b+1, i-cut
		}
	}
	blk := append(t.blocks[b], slot{}) // cap is maxBlock: never reallocates
	copy(blk[i+1:], blk[i:])
	blk[i] = slot{id: id}
	t.blocks[b] = blk
	if i == 0 {
		t.first[b] = id
	}
	t.n++
	t.fb, t.fi = b, i
	return &blk[i]
}

// remove takes out the slot at block b, offset i.
func (t *idTable) remove(b, i int) {
	blk := t.blocks[b]
	blk = blk[:i+copy(blk[i:], blk[i+1:])]
	t.blocks[b] = blk
	t.n--
	if len(blk) == 0 {
		t.drop(b)
		return
	}
	t.first[b] = blk[0].id
	if len(blk) >= minBlock || len(t.blocks) == 1 {
		return
	}
	// Underfull: fold it and a neighbour into one block when the two fit
	// with room to spare.
	if lo := min(b, len(t.blocks)-2); len(t.blocks[lo])+len(t.blocks[lo+1]) <= fillBlock {
		t.blocks[lo] = append(t.blocks[lo], t.blocks[lo+1]...)
		t.drop(lo + 1)
	}
}

func (t *idTable) drop(b int) {
	t.blocks = slices.Delete(t.blocks, b, b+1)
	t.first = slices.Delete(t.first, b, b+1)
}

// build replaces the table with ps, which ascend strictly by id. The
// blocks are carved out of one slab and packed full: an id block only
// grows when a new id lands inside it.
func (t *idTable) build(ps []Pair) {
	n := (len(ps) + maxBlock - 1) / maxBlock
	slab := make([]slot, n*maxBlock)
	*t = idTable{blocks: make([][]slot, n), first: make([]uint64, n), n: len(ps)}
	for b := range t.blocks {
		blk := slab[b*maxBlock : b*maxBlock+min(len(ps), maxBlock) : (b+1)*maxBlock]
		for i := range blk {
			blk[i] = slot{id: ps[i].ID, weight: ps[i].Weight}
		}
		ps = ps[len(blk):]
		t.blocks[b], t.first[b] = blk, blk[0].id
	}
}
