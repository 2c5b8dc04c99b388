package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/engine"
)

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

// writeQueryErr maps a shield query error onto the wire; it reports
// whether err consumed the response.
func writeQueryErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, core.ErrRateLimited), errors.Is(err, core.ErrPrincipalBusy):
		WriteErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, core.ErrNotWriter):
		WriteErr(w, http.StatusForbidden, err)
	case errors.Is(err, core.ErrDegraded):
		WriteErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		WriteErr(w, http.StatusGatewayTimeout, fmt.Errorf("query exceeded the per-request deadline (the delay was still charged): %w", err))
	case errors.Is(err, context.Canceled):
		// Client gone; nothing useful can be written.
	default:
		WriteErr(w, http.StatusBadRequest, err)
	}
	return true
}
