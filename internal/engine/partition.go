package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/parthash"
)

// PartitionSet names some partitions of a count-way split of the primary
// key space (parthash.Index). Passed with a SELECT or DELETE (ExecStmt,
// Prepared.ExecIn) it restricts the statement to the rows whose key
// hashes into the set. The restriction is one more bound conjunct of the
// WHERE clause (resolveWhere appends it, matchesBound evaluates it), so
// every access path applies it where it applies the rest of the
// predicate: below LIMIT, ORDER BY and the aggregate accumulators, and
// again when a DELETE revalidates a row under its latch. Result.Keys —
// what the delay defense charges — therefore lists rows of the set only.
//
// A set is immutable and safe for concurrent use.
type PartitionSet struct {
	count int
	in    []int // sorted, distinct
}

// NewPartitionSet validates include against a count-way split. It is the
// only validator a partition filter has: an empty or out-of-range set is
// an error here and never a silent full-table answer.
func NewPartitionSet(count int, include []int) (*PartitionSet, error) {
	if count <= 0 {
		return nil, errors.New("engine: partition count must be positive")
	}
	if len(include) == 0 {
		return nil, errors.New("engine: empty partition set")
	}
	in := slices.Clone(include)
	slices.Sort(in)
	if in[0] < 0 || in[len(in)-1] >= count {
		return nil, fmt.Errorf("engine: partition set reaches outside [0,%d)", count)
	}
	return &PartitionSet{count: count, in: slices.Compact(in)}, nil
}

// contains reports whether key hashes into one of the set's partitions.
func (ps *PartitionSet) contains(key int64) bool {
	_, ok := slices.BinarySearch(ps.in, parthash.Index(key, ps.count))
	return ok
}
