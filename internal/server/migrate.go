package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/engine"
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
// purge. It also bounds a purge's WAL batch: one DELETE dirties at most
// the heap pages of this many rows.
const migratePageLimit = 512

// MigrateRequest is the POST /admin/migrate request body. Op selects
// the operation:
//
//   - "pull": return the first Limit rows of Filter's partitions with
//     key > After, in key order. The engine evaluates the filter with
//     the scan, so every page but the last is full of wanted rows
//     however thinly they are spread over the keyspace. Next is the last
//     key returned (After when the page is empty); Done reports a short
//     page: nothing of these partitions lies beyond Next.
//   - "push": apply Rows (stringified, schema order) to Table as typed
//     inserts. Idempotent: a row whose key already exists is replaced,
//     so a retried page or a dual-written tuple converges instead of
//     erroring.
//   - "purge": delete the rows a pull with the same After and Limit
//     would have returned — one DELETE bounded to the page's key range —
//     and report the same Next and Done.
//   - "count": execute SQL (a SELECT) over Filter's partitions only and
//     report how many rows it yields. The router pre-counts a scatter
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
	// Next is the cursor to pass as After on the next page: the last
	// key this page returned or purged.
	Next int64 `json:"next,omitempty"`
	// Done reports a short page: the partitions hold nothing past Next.
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
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("unknown migrate op %q", req.Op))
	}
}

// migratePage is one page of pull or purge, read but not yet answered.
type migratePage struct {
	parts  *engine.PartitionSet
	keyCol string
	res    *engine.Result
	out    *MigrateResponse // Next and Done are set
}

// migrateParts resolves the partition filter pull, purge and count all
// require. On false the 400 is written.
func (s *Server) migrateParts(w http.ResponseWriter, req *MigrateRequest) (*engine.PartitionSet, bool) {
	if req.Filter == nil {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("%s requires a partition filter", req.Op))
		return nil, false
	}
	parts, err := req.Filter.set()
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	return parts, true
}

// keyBound is the conjunct "keyCol op k".
func keyBound(keyCol string, op sqlmini.CmpOp, k int64) sqlmini.Comparison {
	return sqlmini.Comparison{Column: keyCol, Op: op, Value: sqlmini.Literal{Kind: sqlmini.IntLit, Int: k}}
}

// migrateRead runs the read pull and purge share: the first Limit rows
// of Filter's partitions with key > After in key order, all columns or
// the key alone. On false the 400 is written.
func (s *Server) migrateRead(w http.ResponseWriter, req *MigrateRequest, keyOnly bool) (migratePage, bool) {
	parts, ok := s.migrateParts(w, req)
	if !ok {
		return migratePage{}, false
	}
	db := s.shield.DB()
	sch, err := db.Schema(req.Table)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return migratePage{}, false
	}
	limit := req.Limit
	if limit <= 0 || limit > migratePageLimit {
		limit = migratePageLimit
	}
	pg := migratePage{parts: parts, keyCol: sch.Columns[sch.Key].Name}
	sel := &sqlmini.Select{
		Table: req.Table,
		Where: &sqlmini.Where{Conjuncts: []sqlmini.Comparison{keyBound(pg.keyCol, sqlmini.OpGt, req.After)}},
		Order: &sqlmini.OrderBy{Column: pg.keyCol},
		Limit: limit,
	}
	if keyOnly {
		sel.Columns = []string{pg.keyCol}
	}
	if pg.res, err = db.ExecStmt(sel, parts); err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return migratePage{}, false
	}
	n := len(pg.res.Keys)
	pg.out = &MigrateResponse{Next: req.After, Done: n < limit}
	if n > 0 {
		pg.out.Next = int64(pg.res.Keys[n-1])
	}
	return pg, true
}

func (s *Server) migratePull(w http.ResponseWriter, req *MigrateRequest) {
	pg, ok := s.migrateRead(w, req, false)
	if !ok {
		return
	}
	for i, row := range pg.res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		pg.out.Keys = append(pg.out.Keys, int64(pg.res.Keys[i]))
		pg.out.Rows = append(pg.out.Rows, cells)
	}
	WriteJSON(w, http.StatusOK, pg.out)
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
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	ins := sqlmini.Insert{Table: req.Table}
	keys := make([]int64, 0, len(req.Rows))
	for _, cells := range req.Rows {
		if len(cells) != len(sch.Columns) {
			WriteErr(w, http.StatusBadRequest,
				fmt.Errorf("row has %d cells; table %s has %d columns", len(cells), req.Table, len(sch.Columns)))
			return
		}
		row := make([]sqlmini.Literal, len(cells))
		for i, cell := range cells {
			lit, lerr := literalFor(cell, sch.Columns[i].Type)
			if lerr != nil {
				WriteErr(w, http.StatusBadRequest, lerr)
				return
			}
			row[i] = lit
		}
		ins.Rows = append(ins.Rows, row)
		keys = append(keys, row[sch.Key].Int)
	}
	if len(ins.Rows) == 0 {
		WriteJSON(w, http.StatusOK, &MigrateResponse{})
		return
	}
	applied := 0
	if res, ierr := db.ExecStmt(&ins, nil); ierr == nil {
		applied = res.Affected
	} else {
		// The batch hit an existing key (a retried page, or a tuple the
		// dual-write already landed). Converge row by row: replace each
		// tuple so the final state matches the source regardless of what
		// was here before.
		keyCol := sch.Columns[sch.Key].Name
		for i, row := range ins.Rows {
			one := &sqlmini.Insert{Table: req.Table, Rows: [][]sqlmini.Literal{row}}
			if _, rerr := db.ExecStmt(one, nil); rerr == nil {
				applied++
				continue
			}
			del := &sqlmini.Delete{Table: req.Table, Where: &sqlmini.Where{Conjuncts: []sqlmini.Comparison{
				keyBound(keyCol, sqlmini.OpEq, keys[i]),
			}}}
			if _, derr := db.ExecStmt(del, nil); derr != nil {
				WriteErr(w, http.StatusBadRequest,
					fmt.Errorf("replacing tuple %d: %v", keys[i], derr))
				return
			}
			if _, rerr := db.ExecStmt(one, nil); rerr != nil {
				WriteErr(w, http.StatusBadRequest,
					fmt.Errorf("re-inserting tuple %d: %v", keys[i], rerr))
				return
			}
			applied++
		}
	}
	WriteJSON(w, http.StatusOK, &MigrateResponse{Applied: applied})
}

func (s *Server) migratePurge(w http.ResponseWriter, req *MigrateRequest) {
	pg, ok := s.migrateRead(w, req, true)
	if !ok {
		return
	}
	if len(pg.res.Keys) > 0 {
		del := &sqlmini.Delete{Table: req.Table, Where: &sqlmini.Where{Conjuncts: []sqlmini.Comparison{
			keyBound(pg.keyCol, sqlmini.OpGt, req.After),
			keyBound(pg.keyCol, sqlmini.OpLe, pg.out.Next),
		}}}
		res, err := s.shield.DB().ExecStmt(del, pg.parts)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, fmt.Errorf("purging (%d, %d]: %v", req.After, pg.out.Next, err))
			return
		}
		pg.out.Applied = res.Affected
	}
	WriteJSON(w, http.StatusOK, pg.out)
}

func (s *Server) migrateCount(w http.ResponseWriter, req *MigrateRequest) {
	parts, ok := s.migrateParts(w, req)
	if !ok {
		return
	}
	if req.SQL == "" {
		WriteErr(w, http.StatusBadRequest, errors.New("count requires sql"))
		return
	}
	prep, err := s.shield.DB().Prepare(req.SQL)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	defer prep.Release()
	if prep.Kind() != engine.KindSelect {
		WriteErr(w, http.StatusBadRequest, errors.New("count takes a SELECT"))
		return
	}
	res, err := prep.ExecIn(parts)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, &MigrateResponse{Count: len(res.Keys)})
}
