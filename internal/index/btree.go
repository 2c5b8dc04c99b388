// Package index provides the relational engine's access path: an
// in-memory B+tree for point and range lookups on a key. Indexes are
// rebuilt from the heap at open time and maintained on every mutation.
package index

import "sync"

// Ordered is the constraint for B+tree key types.
type Ordered interface {
	~int64 | ~uint64 | ~float64 | ~string
}

// maxKeys is the most keys a node holds. A node's slices are allocated
// once with one spare slot for the entry that overflows it, so maxKeys+1
// is 64: 512 bytes of 8-byte keys or RIDs, an exact allocation size
// class, with no tree deeper than four levels at the experiments' sizes.
const maxKeys = 63

// BTree is an in-memory B+tree mapping unique keys to values. Deletion
// is lazy: it removes the entry from its leaf and nothing rebalances or
// merges, so an emptied leaf stays linked in the leaf chain (the same
// strategy PostgreSQL uses for non-empty pages); lookups and scans are
// unaffected. A node on the right edge of the tree that overflows by an
// entry at its end keeps maxKeys entries and moves only that entry to
// the new node, so ascending loads fill every leaf; every other overflow
// splits in the middle. BTree is safe for concurrent use.
type BTree[K Ordered, V any] struct {
	mu   sync.RWMutex
	root *bnode[K, V]
	size int
}

type bnode[K Ordered, V any] struct {
	leaf     bool
	keys     []K
	children []*bnode[K, V] // internal nodes
	vals     []V            // leaf nodes
	next     *bnode[K, V]   // leaf chain for range scans
}

func newLeaf[K Ordered, V any]() *bnode[K, V] {
	return &bnode[K, V]{
		leaf: true,
		keys: make([]K, 0, maxKeys+1),
		vals: make([]V, 0, maxKeys+1),
	}
}

func newInternal[K Ordered, V any]() *bnode[K, V] {
	return &bnode[K, V]{
		keys:     make([]K, 0, maxKeys+1),
		children: make([]*bnode[K, V], 0, maxKeys+2),
	}
}

// NewBTree returns an empty tree.
func NewBTree[K Ordered, V any]() *BTree[K, V] {
	return &BTree[K, V]{root: newLeaf[K, V]()}
}

// Len returns the number of keys stored.
func (t *BTree[K, V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// search returns the first index i with keys[i] >= key and whether
// keys[i] == key. It is the one binary search every lookup uses.
func search[K Ordered](keys []K, key K) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(keys) && keys[lo] == key
}

// child returns the index of n's child whose subtree holds key: a key
// equal to a separator lives to its right.
func (n *bnode[K, V]) child(key K) int {
	i, eq := search(n.keys, key)
	if eq {
		i++
	}
	return i
}

// leafFor returns the leaf whose key range holds key.
func (t *BTree[K, V]) leafFor(key K) *bnode[K, V] {
	n := t.root
	for !n.leaf {
		n = n.children[n.child(key)]
	}
	return n
}

// Get returns the value for key.
func (t *BTree[K, V]) Get(key K) (V, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.leafFor(key)
	if i, ok := search(n.keys, key); ok {
		return n.vals[i], true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for key, returning the previous value
// if one existed.
func (t *BTree[K, V]) Put(key K, val V) (prev V, existed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, existed, split, sepKey, right := t.insert(t.root, true, key, val)
	if split {
		root := newInternal[K, V]()
		root.keys = append(root.keys, sepKey)
		root.children = append(root.children, t.root, right)
		t.root = root
	}
	if !existed {
		t.size++
	}
	return prev, existed
}

// insert puts key into n's subtree. edge reports whether n is on the
// tree's right edge (the root, or reached through last children only).
func (t *BTree[K, V]) insert(n *bnode[K, V], edge bool, key K, val V) (prev V, existed, split bool, sepKey K, right *bnode[K, V]) {
	if n.leaf {
		i, ok := search(n.keys, key)
		if ok {
			prev = n.vals[i]
			n.vals[i] = val
			return prev, true, false, sepKey, nil
		}
		n.keys = append(n.keys, key)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		var zero V
		n.vals = append(n.vals, zero)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) > maxKeys {
			sepKey, right = n.split(splitAt(edge, i))
			return prev, false, true, sepKey, right
		}
		return prev, false, false, sepKey, nil
	}
	ci := n.child(key)
	prev, existed, childSplit, childSep, childRight := t.insert(n.children[ci], edge && ci == len(n.children)-1, key, val)
	if childSplit {
		n.keys = append(n.keys, childSep)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = childSep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = childRight
		if len(n.keys) > maxKeys {
			sepKey, right = n.split(splitAt(edge, ci))
			return prev, existed, true, sepKey, right
		}
	}
	return prev, existed, false, sepKey, nil
}

// splitAt is where an overflowing node splits: a right-edge node whose
// new entry (key index i) landed at its end keeps maxKeys entries, any
// other node is halved.
func splitAt(edge bool, i int) int {
	if edge && i == maxKeys {
		return maxKeys
	}
	return (maxKeys + 1) / 2
}

// split moves n's entries from index mid on into a new right sibling and
// returns it with the separator that bounds it from below. A leaf keeps
// keys[:mid]; an internal node keeps keys[:mid] and children[:mid+1] and
// gives keys[mid] up as the separator.
func (n *bnode[K, V]) split(mid int) (K, *bnode[K, V]) {
	if n.leaf {
		right := newLeaf[K, V]()
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		right.next = n.next
		clear(n.vals[mid:])
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = right
		return right.keys[0], right
	}
	sep := n.keys[mid]
	right := newInternal[K, V]()
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	clear(n.children[mid+1:])
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Delete removes key, reporting whether it was present.
func (t *BTree[K, V]) Delete(key K) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.leafFor(key)
	i, ok := search(n.keys, key)
	if !ok {
		return false
	}
	last := len(n.keys) - 1
	copy(n.keys[i:], n.keys[i+1:])
	copy(n.vals[i:], n.vals[i+1:])
	clear(n.vals[last:])
	n.keys = n.keys[:last]
	n.vals = n.vals[:last]
	t.size--
	return true
}

// AscendRange calls fn in key order for every entry with lo ≤ key ≤ hi.
// A nil bound is unbounded on that side. Iteration stops when fn returns
// false. The tree lock is held for the duration; fn must not mutate the
// tree.
func (t *BTree[K, V]) AscendRange(lo, hi *K, fn func(key K, val V) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n *bnode[K, V]
	i := 0
	if lo != nil {
		// Every leaf after lo's holds keys at or above the separator
		// that bounds it, which is above *lo: only this leaf is searched.
		n = t.leafFor(*lo)
		i, _ = search(n.keys, *lo)
	} else {
		for n = t.root; !n.leaf; n = n.children[0] {
		}
	}
	for ; n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			if hi != nil && *hi < n.keys[i] {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
	}
}

// DescendRange is AscendRange in descending key order. The leaf chain
// runs one way only, so the walk descends from the root, visiting the
// children that can hold keys in [lo, hi] from the right.
func (t *BTree[K, V]) DescendRange(lo, hi *K, fn func(key K, val V) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.root.descend(lo, hi, fn)
}

// descend walks n's subtree for DescendRange and reports whether the
// walk goes on: false once fn stops it or a key below lo is reached.
func (n *bnode[K, V]) descend(lo, hi *K, fn func(key K, val V) bool) bool {
	if n.leaf {
		i := len(n.keys)
		if hi != nil {
			i = n.child(*hi) // the first index holding a key above hi
		}
		for i--; i >= 0; i-- {
			if lo != nil && n.keys[i] < *lo {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	c := len(n.children) - 1
	if hi != nil {
		c = n.child(*hi)
	}
	for ; c >= 0; c-- {
		if !n.children[c].descend(lo, hi, fn) {
			return false
		}
		// Child c-1 and those left of it hold keys below keys[c-1].
		if c > 0 && lo != nil && n.keys[c-1] <= *lo {
			return false
		}
	}
	return true
}
