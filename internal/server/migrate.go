package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/parthash"
	"repro/internal/sqlmini"
)

// POST /admin/migrate is the tuple-migration data plane: the cluster
// router streams partition slices shard-to-shard through it when a
// rebalance moves ownership. It executes directly against the engine,
// below the delay shield, for the same reason seeding does — the
// shield prices full-table reads as extraction (they are the exact
// access pattern the paper defends against), and a migrator paying
// extraction delays would turn every rebalance into an hours-long
// Sybil surcharge while polluting the detector with a phantom
// extractor. The endpoint is part of the admin plane: deploy it behind
// an internal listener, like the sketch-exchange and suspects
// surfaces — on a reachable public listener it IS the database
// extraction the shield exists to prevent.

// migratePageLimit is the default (and maximum) page size for pull and
// purge scans.
const migratePageLimit = 512

// MigrateRequest is the POST /admin/migrate request body. Op selects
// the operation:
//
//   - "pull": scan Table's rows with key > After in key order (up to
//     Limit raw rows), return the rows belonging to Filter's partitions.
//     Next carries the last RAW key scanned — pages advance through
//     slices of the keyspace holding no wanted partition — and Done
//     reports keyspace exhaustion.
//   - "push": apply Rows (stringified, schema order) to Table as typed
//     inserts. Idempotent: a row whose key already exists is replaced,
//     so a retried page or a dual-written tuple converges instead of
//     erroring.
//   - "purge": scan keys with key > After as in pull and delete the
//     rows belonging to Filter's partitions. Paged like pull.
//   - "count": execute SQL (a SELECT) and report how many result rows
//     key into Filter's partitions. The router pre-counts a scatter
//     write's affected rows with this — summing per-replica counts
//     would multiply by the replication factor.
type MigrateRequest struct {
	Op     string           `json:"op"`
	Table  string           `json:"table,omitempty"`
	Filter *PartitionFilter `json:"filter,omitempty"`
	SQL    string           `json:"sql,omitempty"`
	After  int64            `json:"after,omitempty"`
	Limit  int              `json:"limit,omitempty"`
	Rows   [][]string       `json:"rows,omitempty"`
}

// MigrateResponse is the POST /admin/migrate response body.
type MigrateResponse struct {
	// Keys and Rows carry a pull page's tuples (schema column order).
	Keys []int64    `json:"keys,omitempty"`
	Rows [][]string `json:"rows,omitempty"`
	// Next is the scan cursor to pass as After on the next page.
	Next int64 `json:"next,omitempty"`
	// Done reports that the scan exhausted the keyspace.
	Done bool `json:"done,omitempty"`
	// Applied counts rows pushed or purged.
	Applied int `json:"applied,omitempty"`
	// Count is the "count" op's answer.
	Count int `json:"count,omitempty"`
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if !DecodeBody(w, r, MaxBodyBytes, &req) {
		return
	}
	switch req.Op {
	case "pull":
		s.migratePull(w, &req)
	case "push":
		s.migratePush(w, &req)
	case "purge":
		s.migratePurge(w, &req)
	case "count":
		s.migrateCount(w, &req)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown migrate op %q", req.Op))
	}
}

// migrateScanPage fetches one raw key-ordered page: every row with
// key > after, up to limit, whether or not it belongs to a wanted
// partition. Cursoring on raw keys (not filtered ones) is what keeps
// paging live through keyspace regions holding only other partitions.
func (s *Server) migrateScanPage(table, keyCol string, after int64, limit int, columns []string) (*MigrateResponse, [][]string, error) {
	sel := sqlmini.Select{
		Table:   table,
		Columns: columns,
		Where: &sqlmini.Where{Conjuncts: []sqlmini.Comparison{{
			Column: keyCol,
			Op:     sqlmini.OpGt,
			Value:  sqlmini.Literal{Kind: sqlmini.IntLit, Int: after},
		}}},
		Order: &sqlmini.OrderBy{Column: keyCol},
		Limit: limit,
	}
	res, err := s.shield.DB().Exec(sqlmini.Render(&sel))
	if err != nil {
		return nil, nil, err
	}
	if len(res.Keys) != len(res.Rows) {
		return nil, nil, fmt.Errorf("scan page: %d keys for %d rows", len(res.Keys), len(res.Rows))
	}
	out := &MigrateResponse{Next: after, Done: len(res.Rows) < limit}
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = cells
		out.Keys = append(out.Keys, int64(res.Keys[i]))
		if k := int64(res.Keys[i]); k > out.Next {
			out.Next = k
		}
	}
	return out, rows, nil
}

func (s *Server) migratePull(w http.ResponseWriter, req *MigrateRequest) {
	f := req.Filter
	if f == nil {
		writeErr(w, http.StatusBadRequest, errors.New("pull requires a partition filter"))
		return
	}
	if err := f.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sch, err := s.shield.DB().Schema(req.Table)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > migratePageLimit {
		limit = migratePageLimit
	}
	page, rows, err := s.migrateScanPage(req.Table, sch.Columns[sch.Key].Name, req.After, limit, nil)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	include := make(map[int]bool, len(f.Include))
	for _, p := range f.Include {
		include[p] = true
	}
	keys, rowsOut := page.Keys, rows
	page.Keys, page.Rows = nil, nil
	for i, k := range keys {
		if include[parthash.Index(k, f.Count)] {
			page.Keys = append(page.Keys, k)
			page.Rows = append(page.Rows, rowsOut[i])
		}
	}
	writeJSON(w, http.StatusOK, page)
}

// literalFor converts a pulled string cell back into a typed literal
// under the destination column's type.
func literalFor(cell string, t catalog.Type) (sqlmini.Literal, error) {
	switch t {
	case catalog.Int:
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return sqlmini.Literal{}, fmt.Errorf("non-integer cell %q for INT column", cell)
		}
		return sqlmini.Literal{Kind: sqlmini.IntLit, Int: v}, nil
	case catalog.Float:
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return sqlmini.Literal{}, fmt.Errorf("non-numeric cell %q for FLOAT column", cell)
		}
		return sqlmini.Literal{Kind: sqlmini.FloatLit, Float: v}, nil
	default:
		return sqlmini.Literal{Kind: sqlmini.StringLit, Str: cell}, nil
	}
}

func (s *Server) migratePush(w http.ResponseWriter, req *MigrateRequest) {
	db := s.shield.DB()
	sch, err := db.Schema(req.Table)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ins := sqlmini.Insert{Table: req.Table}
	keys := make([]int64, 0, len(req.Rows))
	for _, cells := range req.Rows {
		if len(cells) != len(sch.Columns) {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("row has %d cells; table %s has %d columns", len(cells), req.Table, len(sch.Columns)))
			return
		}
		row := make([]sqlmini.Literal, len(cells))
		for i, cell := range cells {
			lit, lerr := literalFor(cell, sch.Columns[i].Type)
			if lerr != nil {
				writeErr(w, http.StatusBadRequest, lerr)
				return
			}
			row[i] = lit
		}
		ins.Rows = append(ins.Rows, row)
		keys = append(keys, row[sch.Key].Int)
	}
	if len(ins.Rows) == 0 {
		writeJSON(w, http.StatusOK, &MigrateResponse{})
		return
	}
	applied := 0
	if res, ierr := db.Exec(sqlmini.Render(&ins)); ierr == nil {
		applied = res.Affected
	} else {
		// The batch hit an existing key (a retried page, or a tuple the
		// dual-write already landed). Converge row by row: replace each
		// tuple so the final state matches the source regardless of what
		// was here before.
		keyCol := sch.Columns[sch.Key].Name
		for i, row := range ins.Rows {
			one := sqlmini.Insert{Table: req.Table, Rows: [][]sqlmini.Literal{row}}
			if _, rerr := db.Exec(sqlmini.Render(&one)); rerr == nil {
				applied++
				continue
			}
			del := sqlmini.Delete{Table: req.Table, Where: &sqlmini.Where{Conjuncts: []sqlmini.Comparison{{
				Column: keyCol,
				Op:     sqlmini.OpEq,
				Value:  sqlmini.Literal{Kind: sqlmini.IntLit, Int: keys[i]},
			}}}}
			if _, derr := db.Exec(sqlmini.Render(&del)); derr != nil {
				writeErr(w, http.StatusBadRequest,
					fmt.Errorf("replacing tuple %d: %v", keys[i], derr))
				return
			}
			if _, rerr := db.Exec(sqlmini.Render(&one)); rerr != nil {
				writeErr(w, http.StatusBadRequest,
					fmt.Errorf("re-inserting tuple %d: %v", keys[i], rerr))
				return
			}
			applied++
		}
	}
	writeJSON(w, http.StatusOK, &MigrateResponse{Applied: applied})
}

func (s *Server) migratePurge(w http.ResponseWriter, req *MigrateRequest) {
	f := req.Filter
	if f == nil {
		writeErr(w, http.StatusBadRequest, errors.New("purge requires a partition filter"))
		return
	}
	if err := f.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	db := s.shield.DB()
	sch, err := db.Schema(req.Table)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	keyCol := sch.Columns[sch.Key].Name
	limit := req.Limit
	if limit <= 0 || limit > migratePageLimit {
		limit = migratePageLimit
	}
	page, _, err := s.migrateScanPage(req.Table, keyCol, req.After, limit, []string{keyCol})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	include := make(map[int]bool, len(f.Include))
	for _, p := range f.Include {
		include[p] = true
	}
	for _, k := range page.Keys {
		if !include[parthash.Index(k, f.Count)] {
			continue
		}
		del := sqlmini.Delete{Table: req.Table, Where: &sqlmini.Where{Conjuncts: []sqlmini.Comparison{{
			Column: keyCol,
			Op:     sqlmini.OpEq,
			Value:  sqlmini.Literal{Kind: sqlmini.IntLit, Int: k},
		}}}}
		if _, derr := db.Exec(sqlmini.Render(&del)); derr != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("purging tuple %d: %v", k, derr))
			return
		}
		page.Applied++
	}
	page.Keys = nil
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) migrateCount(w http.ResponseWriter, req *MigrateRequest) {
	f := req.Filter
	if f == nil {
		writeErr(w, http.StatusBadRequest, errors.New("count requires a partition filter"))
		return
	}
	if err := f.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.SQL == "" {
		writeErr(w, http.StatusBadRequest, errors.New("count requires sql"))
		return
	}
	res, err := s.shield.DB().Exec(req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	include := make(map[int]bool, len(f.Include))
	for _, p := range f.Include {
		include[p] = true
	}
	count := 0
	for _, k := range res.Keys {
		if include[parthash.Index(int64(k), f.Count)] {
			count++
		}
	}
	writeJSON(w, http.StatusOK, &MigrateResponse{Count: count})
}
