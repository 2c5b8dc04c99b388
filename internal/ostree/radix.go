package ostree

import "slices"

// SortByID orders ps by id, stably, so that of a repeated id's pairs the
// last given is still the last: LSD radix passes of one byte each, O(N),
// and none at all when ps already ascends.
func SortByID(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		if ps[i].ID < ps[i-1].ID {
			radixSort(ps, nil, func(p *Pair) uint64 { return p.ID })
			return
		}
	}
}

// sortEntries orders es by (key, id) and returns its scratch, buf or a
// larger one in its place: stably by key, after sorting by id unless the
// ids already ascend (a scan's do, and FromWeights' and byRank's).
func sortEntries(es, buf []entry) []entry {
	for i := 1; i < len(es); i++ {
		if es[i].id < es[i-1].id {
			buf = radixSort(es, buf, func(e *entry) uint64 { return e.id })
			break
		}
	}
	return radixSort(es, buf, func(e *entry) uint64 { return e.key })
}

// radixSort orders xs stably by key in LSD passes of one byte, each a
// count and a scatter between xs and a scratch, and returns the scratch:
// buf, or a larger one in its place. Only a byte that differs somewhere
// in xs gets a pass: a count's key varies in three or four.
func radixSort[T any](xs, buf []T, key func(*T) uint64) []T {
	var diff uint64
	for i := range xs {
		diff |= key(&xs[i]) ^ key(&xs[0])
	}
	src, dst := xs, xs
	for shift := 0; diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		if &dst[0] == &xs[0] && &src[0] == &xs[0] {
			buf = slices.Grow(buf[:0], len(xs))[:len(xs)]
			dst = buf
		}
		var at [256]int
		for i := range src {
			at[byte(key(&src[i])>>shift)]++
		}
		next := 0
		for b, n := range at {
			at[b], next = next, next+n
		}
		for i := range src {
			b := byte(key(&src[i]) >> shift)
			dst[at[b]] = src[i]
			at[b]++
		}
		src, dst = dst, src
	}
	if len(xs) > 0 && &src[0] != &xs[0] {
		copy(xs, src)
	}
	return buf
}
