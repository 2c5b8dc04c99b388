package ostree

// SortByID orders ps by id, stably, so that of a repeated id's pairs the
// last given is still the last: LSD radix passes of one byte each, O(N),
// and none at all when ps already ascends.
func SortByID(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		if ps[i].ID < ps[i-1].ID {
			radixSort(ps, func(p *Pair) uint64 { return p.ID })
			return
		}
	}
}

// sortByKey orders es by key, stably, in LSD radix passes of one byte
// each. Entries that arrive in ascending id leave in (key, id) order,
// which is sortEntries' order in O(N).
func sortByKey(es []entry) {
	radixSort(es, func(e *entry) uint64 { return e.key })
}

// radixSort orders xs stably by key, eight passes of one byte from the
// least significant up. A pass whose byte is the same in every element
// moves nothing and is skipped; the others scatter between xs and one
// scratch slice.
func radixSort[T any](xs []T, key func(*T) uint64) {
	if len(xs) < 2 {
		return
	}
	var counts [8][256]int
	for i := range xs {
		k := key(&xs[i])
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := xs, []T(nil)
	for d := range counts {
		c := &counts[d]
		if c[byte(key(&src[0])>>(8*d))] == len(src) {
			continue
		}
		if dst == nil {
			dst = make([]T, len(xs))
		}
		next := 0
		for b, n := range c {
			c[b] = next
			next += n
		}
		for i := range src {
			b := byte(key(&src[i]) >> (8 * d))
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
