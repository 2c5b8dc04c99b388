// Package cluster turns N independent delaydb nodes into one front
// door: a thin router routes every statement by tuple through one
// partition map (each partition placed on a replica group by
// consistent hashing; full replication is the group-is-every-node
// case), admission control rejects abusive traffic at the edge before
// any shard spends work on it, and a periodic anti-entropy exchanger
// gossips per-principal detection sketches between shards so coverage
// pricing and coalition clustering operate on the union view — the
// property that makes sharding itself not be an extraction attack (a
// Sybil whose reads land on different shards must price as if one node
// saw everything).
package cluster

import (
	"fmt"
	"sort"
)

// ringVNodes is the virtual-node multiplier: enough points that the
// keyspace splits within a few percent of evenly for small clusters,
// small enough that the ring stays a cache-resident sorted array.
const ringVNodes = 128

// ring is a consistent-hash ring over node indices. Immutable after
// construction — node failure is handled by walking the preference
// sequence at lookup time, not by mutating the ring, so a flapping
// peer never reshuffles keys owned by healthy nodes.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int
}

func newRing(nodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, nodes*ringVNodes), nodes: nodes}
	for n := 0; n < nodes; n++ {
		for v := 0; v < ringVNodes; v++ {
			h := fnv64a(fmt.Sprintf("node-%d#%d", n, v))
			r.points = append(r.points, ringPoint{hash: h, node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// sequence returns all node indices in preference order for key: the
// owner (the first ring point at or after the key's hash, wrapping at
// the top) first, then each distinct node in ring order. Replica groups
// are prefixes of this sequence, so a key's fallback shard is as stable
// as its owner.
func (r *ring) sequence(key string) []int {
	out := make([]int, 0, r.nodes)
	seen := make([]bool, r.nodes)
	i := r.search(key)
	for len(out) < r.nodes {
		n := r.points[i].node
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

func (r *ring) search(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// fnv64a is the stdlib FNV-1a without the hash.Hash allocation.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
