package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/parthash"
	"repro/internal/sqlmini"
)

// PartitionFilter restricts a SELECT to rows whose primary key hashes
// into one of the named partitions under a Count-way split. With
// replicated partitions a shard's local data spans several replica
// groups, so an unfiltered scan leg would return (and charge for) rows
// another leg also returns; the filter makes each leg answer exactly
// the partitions the router assigned it. It also hides orphaned rows —
// slices a past migration moved away but whose best-effort cleanup did
// not finish.
type PartitionFilter struct {
	// Count is the partition count of the governing map.
	Count int `json:"count"`
	// Include lists the partition indexes this shard should answer for.
	Include []int `json:"include"`
}

func (f *PartitionFilter) validate() error {
	if f.Count <= 0 {
		return errors.New("pfilter: count must be positive")
	}
	if len(f.Include) == 0 {
		return errors.New("pfilter: empty include list")
	}
	for _, p := range f.Include {
		if p < 0 || p >= f.Count {
			return fmt.Errorf("pfilter: partition %d out of range [0,%d)", p, f.Count)
		}
	}
	return nil
}

// writeQueryErr maps a shield query error onto the wire; it reports
// whether err consumed the response.
func writeQueryErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, core.ErrRateLimited):
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, core.ErrDegraded):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, fmt.Errorf("query exceeded the per-request deadline (the delay was still charged): %w", err))
	case errors.Is(err, context.Canceled):
		// Client gone; nothing useful can be written.
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
	return true
}

// serveFiltered answers a /query request carrying a partition filter.
// The statement must be a plain or aggregate SELECT. The filter is
// applied between execution and observation (core.QueryFilteredCtx),
// so detection and delay pricing see only the rows actually returned —
// a replica answering for half its local partitions charges half, not
// all, of a scanned range.
func (s *Server) serveFiltered(ctx context.Context, w http.ResponseWriter, id string, req QueryRequest) {
	f := req.PFilter
	if err := f.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	stmt, err := sqlmini.Parse(req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sel, ok := stmt.(*sqlmini.Select)
	if !ok {
		writeErr(w, http.StatusBadRequest, errors.New("pfilter applies to SELECT statements only"))
		return
	}
	if sel.Explain {
		writeErr(w, http.StatusBadRequest, errors.New("pfilter does not apply to EXPLAIN"))
		return
	}
	include := make(map[int]bool, len(f.Include))
	for _, p := range f.Include {
		include[p] = true
	}
	if len(sel.Aggregates) > 0 {
		s.serveFilteredAggregates(ctx, w, id, sel, f, include)
		return
	}

	// Plain SELECT: execute without the LIMIT and enforce it inside the
	// keep closure, post-filter — the engine's primary keys arrive in
	// output-row order, so counting accepted rows reproduces LIMIT
	// semantics while charging only for rows the caller receives. The
	// projection is untouched: the engine reports keys from the
	// unprojected row, so the key column need not be selected.
	exec := *sel
	exec.Limit = -1
	limit, kept := sel.Limit, 0
	keep := func(key uint64) bool {
		if limit >= 0 && kept >= limit {
			return false
		}
		if !include[parthash.Index(int64(key), f.Count)] {
			return false
		}
		kept++
		return true
	}
	res, stats, err := s.shield.QueryFilteredCtx(ctx, id, sqlmini.Render(&exec), keep)
	if writeQueryErr(w, err) {
		return
	}
	writeQueryResponse(w, res.Columns, res.Rows, res.Affected, stats.Delay)
}

// serveFilteredAggregates rewrites an aggregate SELECT into a plain
// projection of the aggregate argument columns, filters the rows by
// partition, and folds the aggregates server-side — the only way to
// aggregate a partition slice, since the engine's own accumulators run
// below the filter.
func (s *Server) serveFilteredAggregates(ctx context.Context, w http.ResponseWriter, id string, sel *sqlmini.Select, f *PartitionFilter, include map[int]bool) {
	outCols := make([]string, len(sel.Aggregates))
	for i, a := range sel.Aggregates {
		outCols[i] = sqlmini.AggregateName(a)
	}
	if sel.Limit == 0 {
		// Mirror the engine: LIMIT 0 on an aggregate yields no row.
		writeQueryResponse(w, outCols, nil, 0, 0)
		return
	}
	exec := sqlmini.Select{Table: sel.Table, Where: sel.Where, Limit: -1}
	colAt := make(map[string]int)
	for _, a := range sel.Aggregates {
		if a.Column == "" {
			continue
		}
		if _, ok := colAt[a.Column]; !ok {
			colAt[a.Column] = len(exec.Columns)
			exec.Columns = append(exec.Columns, a.Column)
		}
	}
	keep := func(key uint64) bool {
		return include[parthash.Index(int64(key), f.Count)]
	}
	res, stats, err := s.shield.QueryFilteredCtx(ctx, id, sqlmini.Render(&exec), keep)
	if writeQueryErr(w, err) {
		return
	}
	row := make(catalog.Row, len(sel.Aggregates))
	for i, a := range sel.Aggregates {
		ci := colAt[a.Column]
		switch a.Func {
		case sqlmini.AggCount:
			row[i] = catalog.IntValue(int64(len(res.Rows)))
		case sqlmini.AggSum, sqlmini.AggAvg:
			var sum float64
			for _, r := range res.Rows {
				v, perr := strconv.ParseFloat(r[ci].String(), 64)
				if perr != nil {
					writeErr(w, http.StatusBadRequest,
						fmt.Errorf("%s over non-numeric column %q", a.Func, a.Column))
					return
				}
				sum += v
			}
			if a.Func == sqlmini.AggAvg {
				if len(res.Rows) == 0 {
					row[i] = catalog.IntValue(0)
					break
				}
				sum /= float64(len(res.Rows))
			}
			row[i] = catalog.FloatValue(sum)
		case sqlmini.AggMin, sqlmini.AggMax:
			if len(res.Rows) == 0 {
				// The engine's empty-aggregate zero; a merging router
				// discards it via the COUNT(*) partial guard.
				row[i] = catalog.IntValue(0)
				break
			}
			best := res.Rows[0][ci].String()
			for _, r := range res.Rows[1:] {
				c := sqlmini.CompareCells(r[ci].String(), best)
				if (a.Func == sqlmini.AggMin && c < 0) || (a.Func == sqlmini.AggMax && c > 0) {
					best = r[ci].String()
				}
			}
			row[i] = catalog.TextValue(best)
		}
	}
	writeQueryResponse(w, outCols, []catalog.Row{row}, 0, stats.Delay)
}
