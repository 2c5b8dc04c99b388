package server

import "repro/internal/engine"

// PartitionFilter restricts a SELECT to rows whose primary key hashes
// into one of the named partitions under a Count-way split. With
// replicated partitions a shard's local data spans several replica
// groups, so an unfiltered scan leg would return (and charge for) rows
// another leg also returns; the filter makes each leg answer exactly
// the partitions the router assigned it. It also hides orphaned rows —
// slices a past migration moved away but whose best-effort cleanup did
// not finish.
//
// It is the wire form only. The engine evaluates it, as one more
// conjunct of the statement's WHERE clause (engine.PartitionSet), so a
// filtered statement executes, observes and charges through the same
// path as an unfiltered one.
type PartitionFilter struct {
	// Count is the partition count of the governing map.
	Count int `json:"count"`
	// Include lists the partition indexes this shard should answer for.
	Include []int `json:"include"`
}

// set converts the wire form into the engine's partition set. The
// engine's constructor is the validator: a malformed or out-of-range
// filter is an error (the handlers' 400), never a full-table answer.
func (f *PartitionFilter) set() (*engine.PartitionSet, error) {
	return engine.NewPartitionSet(f.Count, f.Include)
}
