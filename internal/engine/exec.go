package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

func (db *Database) execCreate(s *sqlmini.CreateTable) (*Result, error) {
	schema := catalog.Schema{Table: s.Table, Key: -1}
	for i, col := range s.Columns {
		typ, err := catalog.ParseType(col.TypeName)
		if err != nil {
			return nil, err
		}
		schema.Columns = append(schema.Columns, catalog.Column{Name: col.Name, Type: typ})
		if col.PrimaryKey {
			if schema.Key >= 0 {
				return nil, fmt.Errorf("engine: table %q has multiple primary keys", s.Table)
			}
			schema.Key = i
		}
	}
	if schema.Key < 0 {
		return nil, fmt.Errorf("engine: table %q needs an INT PRIMARY KEY column", s.Table)
	}
	if err := db.CreateTable(schema); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// literalToValue coerces a literal to the column type. INT literals widen
// to FLOAT columns; everything else must match exactly.
func literalToValue(lit sqlmini.Literal, col catalog.Column) (catalog.Value, error) {
	switch col.Type {
	case catalog.Int:
		if lit.Kind == sqlmini.IntLit {
			return catalog.IntValue(lit.Int), nil
		}
	case catalog.Float:
		switch lit.Kind {
		case sqlmini.FloatLit:
			return catalog.FloatValue(lit.Float), nil
		case sqlmini.IntLit:
			return catalog.FloatValue(float64(lit.Int)), nil
		}
	case catalog.Text:
		if lit.Kind == sqlmini.StringLit {
			return catalog.TextValue(lit.Str), nil
		}
	}
	return catalog.Value{}, fmt.Errorf("engine: literal %v does not fit column %q (%v)",
		lit, col.Name, col.Type)
}

func (db *Database) execInsert(s *sqlmini.Insert) (*Result, error) {
	t, err := db.getTable(s.Table)
	if err != nil {
		return nil, err
	}
	// Validate and encode every row before taking any lock.
	rows := make([]catalog.Row, 0, len(s.Rows))
	recs := make([][]byte, 0, len(s.Rows))
	keys := make([]int64, 0, len(s.Rows))
	for _, litRow := range s.Rows {
		if len(litRow) != len(t.schema.Columns) {
			return nil, fmt.Errorf("engine: INSERT has %d values, table %q has %d columns",
				len(litRow), s.Table, len(t.schema.Columns))
		}
		row := make(catalog.Row, len(litRow))
		for i, lit := range litRow {
			v, err := literalToValue(lit, t.schema.Columns[i])
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rec, err := catalog.EncodeRow(t.schema, row)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		recs = append(recs, rec)
		keys = append(keys, row[t.schema.Key].Int)
	}
	run := func() (bool, error) {
		t.mu.RLock()
		defer t.mu.RUnlock()
		// Claim the keys so two statements inserting the same key cannot
		// both pass the index probe below; the claim also rejects a
		// duplicate within the statement itself.
		if busy, ok := t.claimKeys(keys); !ok {
			return false, fmt.Errorf("engine: duplicate primary key %d in table %q", busy, s.Table)
		}
		defer t.releaseKeys(keys)
		t.idxMu.RLock()
		for _, key := range keys {
			if _, exists := t.pk.Get(key); exists {
				t.idxMu.RUnlock()
				return false, fmt.Errorf("engine: duplicate primary key %d in table %q", key, s.Table)
			}
		}
		t.idxMu.RUnlock()

		ws := storage.NewWriteSet(t.pool)
		defer ws.Release()
		rids := make([]storage.RID, len(recs))
		for i, rec := range recs {
			rid, err := t.heap.InsertW(ws, rec)
			if err != nil {
				return false, err
			}
			rids[i] = rid
		}
		return t.commitWrite(ws, func() {
			for i, key := range keys {
				t.pk.Put(key, rids[i])
				for _, sec := range t.secondaries {
					sec.insert(rows[i], rids[i])
				}
			}
		})
	}
	cp, err := run()
	if err != nil {
		return nil, err
	}
	if cp {
		db.noteCheckpointErr(t.checkpoint())
	}
	return &Result{Affected: len(recs)}, nil
}

// selSpec is a fully resolved non-aggregate SELECT: conjuncts and
// projection bound to schema indices, the decode masks, and the
// ordering/limit parameters. execSelect builds one from the AST; the
// plan cache rebinds one from a cached template without re-parsing.
type selSpec struct {
	conj []boundConj
	proj []int
	cols []string
	// need marks every column the statement reads. lean, the decode mask
	// of a SELECT whose rows a RowEncoder writes, leaves out the
	// projection: its TEXT cells are read from the record in place, and
	// fixed-width columns decode regardless. rowWriter.decode picks.
	need      []bool
	lean      []bool
	orderCol  int // -1 when no ORDER BY
	orderDesc bool
	limit     int // -1 when absent
}

// needMask returns the decode mask covering the projection, the
// conjunct columns, the primary key, and extra (an ORDER BY column, or
// -1). It returns nil when every column is needed, which lets the
// decoder skip the mask check entirely.
func needMask(schema catalog.Schema, proj []int, conj []boundConj, extra int) []bool {
	need := make([]bool, len(schema.Columns))
	for _, ci := range proj {
		need[ci] = true
	}
	for i := range conj {
		need[conj[i].col] = true
	}
	need[schema.Key] = true
	if extra >= 0 {
		need[extra] = true
	}
	for _, b := range need {
		if !b {
			return need
		}
	}
	return nil
}

// execSelect runs a parsed SELECT, its rows written through w.
func (db *Database) execSelect(s *sqlmini.Select, parts *PartitionSet, w *rowWriter) (*Result, error) {
	t, err := db.getTable(s.Table)
	if err != nil {
		return nil, err
	}
	// Shared lifecycle lock for the whole statement: concurrent readers
	// and (on the concurrent write path) writers proceed together; only
	// DDL, checkpoints, and cache teardown exclude it.
	t.mu.RLock()
	defer t.mu.RUnlock()
	conj, err := resolveWhere(t.schema, s.Where, parts)
	if err != nil {
		return nil, err
	}
	explain := func(need []bool) (*Result, error) {
		t.idxMu.RLock()
		p := choosePlanBound(t, conj)
		t.idxMu.RUnlock()
		res := w.start([]string{"plan"})
		plan := catalog.Row{catalog.TextValue(p.Describe(t, need))}
		return res, w.row(catalog.Schema{}, []int{0}, plan, nil)
	}
	if len(s.Aggregates) > 0 {
		accs, cols, err := newAggAccums(t, s.Aggregates)
		if err != nil {
			return nil, err
		}
		// Decode mask: the key, the filter columns, and the aggregated
		// columns; COUNT(*) aggregates contribute nothing.
		var aggCols []int
		for i := range accs {
			if accs[i].col >= 0 {
				aggCols = append(aggCols, accs[i].col)
			}
		}
		need := needMask(t.schema, aggCols, conj, -1)
		if s.Explain {
			return explain(need)
		}
		return db.execAggregate(t, s, conj, accs, cols, need, w)
	}
	proj, err := projection(t.schema, s.Columns)
	if err != nil {
		return nil, err
	}
	spec := selSpec{
		conj:     conj,
		proj:     proj,
		cols:     projColumns(t.schema, proj),
		orderCol: -1,
		limit:    s.Limit,
	}
	if s.Order != nil {
		oi := t.schema.ColumnIndex(s.Order.Column)
		if oi < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in ORDER BY", s.Order.Column)
		}
		spec.orderCol = oi
		spec.orderDesc = s.Order.Desc
	}
	spec.need = needMask(t.schema, proj, conj, spec.orderCol)
	if s.Explain {
		return explain(spec.need)
	}
	spec.lean = needMask(t.schema, nil, conj, spec.orderCol)
	return db.execSelectSpec(t, &spec, w)
}

// execSelectSpec runs a resolved non-aggregate SELECT, its rows written
// through w. Callers hold the table read lock.
func (db *Database) execSelectSpec(t *table, spec *selSpec, w *rowWriter) (*Result, error) {
	res := w.start(spec.cols)
	if spec.limit == 0 {
		// No row to return, so no tuple to charge: Keys stays empty too.
		return res, nil
	}
	decode := w.decode(spec)
	// emit returns one row; len(res.Keys) counts the rows returned.
	emit := func(row catalog.Row, rec []byte) error {
		res.Keys = append(res.Keys, uint64(row[t.schema.Key].Int))
		return w.row(t.schema, spec.proj, row, rec)
	}

	if spec.orderCol >= 0 {
		oi := spec.orderCol
		// Materialize, sort, then emit up to the limit. A row keeps what
		// the writer will read of its record.
		type heldRow struct {
			row catalog.Row
			rec []byte
		}
		var rows []heldRow
		err := db.planAndScanBound(t, spec.conj, spec.need, decode, func(_ storage.RID, row catalog.Row, rec []byte) (bool, error) {
			rows = append(rows, heldRow{append(catalog.Row(nil), row...), w.hold(rec)})
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		sort.SliceStable(rows, func(a, b int) bool {
			c, _ := rows[a].row[oi].Compare(rows[b].row[oi])
			if spec.orderDesc {
				return c > 0
			}
			return c < 0
		})
		for _, h := range rows {
			if spec.limit >= 0 && len(res.Keys) >= spec.limit {
				break
			}
			if err := emit(h.row, h.rec); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	limit := spec.limit
	err := db.planAndScanBound(t, spec.conj, spec.need, decode, func(_ storage.RID, row catalog.Row, rec []byte) (bool, error) {
		if err := emit(row, rec); err != nil {
			return false, err
		}
		return limit < 0 || len(res.Keys) < limit, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// aggAccum accumulates one aggregate function over a subset of the
// matching rows. Accumulators are mergeable so the parallel scan
// executor can fold per-chunk partials into the final answer in page
// order (deterministic float sums for a given heap layout).
type aggAccum struct {
	col   int // -1 for COUNT(*)
	count int64
	sum   float64
	min   catalog.Value
	max   catalog.Value
	seen  bool
}

// observe folds one matching row into the accumulator.
func (a *aggAccum) observe(row catalog.Row) {
	a.count++
	if a.col < 0 {
		return
	}
	v := row[a.col]
	switch v.Type {
	case catalog.Int:
		a.sum += float64(v.Int)
	case catalog.Float:
		a.sum += v.Float
	}
	if !a.seen {
		a.min, a.max, a.seen = v, v, true
		return
	}
	if c, _ := v.Compare(a.min); c < 0 {
		a.min = v
	}
	if c, _ := v.Compare(a.max); c > 0 {
		a.max = v
	}
}

// merge folds another accumulator (over later rows) into this one.
func (a *aggAccum) merge(o aggAccum) {
	a.count += o.count
	a.sum += o.sum
	if !o.seen {
		return
	}
	if !a.seen {
		a.min, a.max, a.seen = o.min, o.max, true
		return
	}
	if c, _ := o.min.Compare(a.min); c < 0 {
		a.min = o.min
	}
	if c, _ := o.max.Compare(a.max); c > 0 {
		a.max = o.max
	}
}

// newAggAccums resolves the aggregate list against the schema, returning
// one accumulator per aggregate plus the result column names.
func newAggAccums(t *table, aggs []sqlmini.Aggregate) ([]aggAccum, []string, error) {
	accs := make([]aggAccum, len(aggs))
	cols := make([]string, len(aggs))
	for i, agg := range aggs {
		accs[i].col = -1
		if agg.Column != "" {
			ci := t.schema.ColumnIndex(agg.Column)
			if ci < 0 {
				return nil, nil, fmt.Errorf("engine: unknown column %q in %v", agg.Column, agg.Func)
			}
			colType := t.schema.Columns[ci].Type
			if (agg.Func == sqlmini.AggSum || agg.Func == sqlmini.AggAvg) && colType == catalog.Text {
				return nil, nil, fmt.Errorf("engine: %v over TEXT column %q", agg.Func, agg.Column)
			}
			accs[i].col = ci
			cols[i] = fmt.Sprintf("%s(%s)", strings.ToLower(agg.Func.String()), agg.Column)
		} else {
			cols[i] = "count(*)"
		}
	}
	return accs, cols, nil
}

// execAggregate evaluates COUNT/SUM/AVG/MIN/MAX over the matching rows,
// returning one summary row. Keys lists every tuple included in the
// aggregate: the delay defense treats an aggregate as "the aggregate of
// multiple simple queries" (§2.1), so an adversary cannot cheaply walk
// the database through SUMs. Full scans fan out across the parallel
// executor, each worker folding rows into private accumulators that are
// merged in page order. accs, cols and need are newAggAccums' accumulators
// and column names and the statement's decode mask; the summary row is
// written through w. Callers hold the table read lock.
func (db *Database) execAggregate(t *table, s *sqlmini.Select, conj []boundConj, accs []aggAccum, cols []string, need []bool, w *rowWriter) (*Result, error) {
	res := w.start(cols)
	if s.Limit == 0 {
		// LIMIT 0 withholds the summary row, and with it every tuple
		// the row would have been charged for.
		return res, nil
	}

	t.idxMu.RLock()
	p := choosePlanBound(t, conj)
	t.idxMu.RUnlock()
	var err error
	if n := db.scanWorkersFor(t); p.kind == planFullScan && n > 1 {
		snap := t.pool.BeginSnapshot()
		err = db.parallelAggregate(t, conj, need, n, snap, accs, res)
		t.pool.EndSnapshot(snap)
	} else {
		err = db.planAndScanBound(t, conj, need, need, func(_ storage.RID, row catalog.Row, _ []byte) (bool, error) {
			res.Keys = append(res.Keys, uint64(row[t.schema.Key].Int))
			for i := range accs {
				accs[i].observe(row)
			}
			return true, nil
		})
	}
	if err != nil {
		return nil, err
	}

	out := make(catalog.Row, len(s.Aggregates))
	proj := make([]int, len(out))
	for i, agg := range s.Aggregates {
		a := accs[i]
		proj[i] = i
		switch agg.Func {
		case sqlmini.AggCount:
			out[i] = catalog.IntValue(a.count)
		case sqlmini.AggSum:
			out[i] = catalog.FloatValue(a.sum)
		case sqlmini.AggAvg:
			if a.count == 0 {
				out[i] = catalog.FloatValue(0)
			} else {
				out[i] = catalog.FloatValue(a.sum / float64(a.count))
			}
		case sqlmini.AggMin:
			if !a.seen {
				out[i] = catalog.IntValue(0)
			} else {
				out[i] = a.min
			}
		case sqlmini.AggMax:
			if !a.seen {
				out[i] = catalog.IntValue(0)
			} else {
				out[i] = a.max
			}
		default:
			return nil, fmt.Errorf("engine: unsupported aggregate %v", agg.Func)
		}
	}
	return res, w.row(catalog.Schema{}, proj, out, nil)
}

// setOp is one resolved SET assignment of an UPDATE.
type setOp struct {
	col int
	val catalog.Value
}

// ridMatch is a row a mutation's scan phase matched: where it was and
// the key it had when the snapshot saw it.
type ridMatch struct {
	rid storage.RID
	key int64
}

// sortMatches orders matched rows by (page, slot). A write set blocks
// on a latch only above its held high-water mark (see WriteSet), so
// latching matches in ascending order lets the common, uncontended
// statement wait for every row instead of skipping.
func sortMatches(matches []ridMatch) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].rid.Page != matches[j].rid.Page {
			return matches[i].rid.Page < matches[j].rid.Page
		}
		return matches[i].rid.Slot < matches[j].rid.Slot
	})
}

// lockRow latches the page of a matched row and revalidates the match
// against the latched (committed, now immutable to others) state: the
// snapshot that produced the match is in the past, so the row may have
// been updated, moved, or deleted since. Returns the row's current RID
// and decoded image, with ok=false when the row vanished, no longer
// matches the conjuncts, or sits on a page whose latch is contended and
// too low-numbered to block on (the statement then skips it —
// read-committed semantics).
// If the slot no longer holds the key, the primary key is chased once:
// an in-place update relocating the row (page overflow) is the one
// mover that leaves the key live elsewhere.
func (t *table) lockRow(ws *storage.WriteSet, rid storage.RID, key int64, conj []boundConj) (storage.RID, catalog.Row, bool, error) {
	// Acquire blocks only when rid.Page is above every page already
	// held; after a chase parked the set on a high page, lower-numbered
	// matches degrade to try-and-skip rather than risk a latch cycle.
	pg, ok, err := ws.Acquire(rid.Page)
	if err != nil || !ok {
		return rid, nil, false, err
	}
	for chased := false; ; chased = true {
		if rec, rerr := pg.Record(int(rid.Slot)); rerr == nil {
			row, derr := catalog.DecodeRow(t.schema, rec)
			if derr != nil {
				return rid, nil, false, derr
			}
			if row[t.schema.Key].Int == key {
				ok, merr := matchesBound(row, conj)
				return rid, row, ok, merr
			}
		}
		if chased {
			return rid, nil, false, nil
		}
		t.idxMu.RLock()
		nrid, found := t.pk.Get(key)
		t.idxMu.RUnlock()
		if !found || nrid == rid {
			return rid, nil, false, nil
		}
		// The chase target is an arbitrary page; Acquire itself decides
		// whether blocking is safe (only above the held high-water mark)
		// and otherwise tries. Contended → skip the row.
		npg, ok, err := ws.Acquire(nrid.Page)
		if err != nil || !ok {
			return rid, nil, false, err
		}
		rid, pg = nrid, npg
	}
}

func (db *Database) execUpdate(s *sqlmini.Update) (*Result, error) {
	t, err := db.getTable(s.Table)
	if err != nil {
		return nil, err
	}
	// Resolve SET columns up front.
	var sets []setOp
	for _, a := range s.Set {
		ci := t.schema.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in UPDATE", a.Column)
		}
		v, err := literalToValue(a.Value, t.schema.Columns[ci])
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{col: ci, val: v})
	}
	conj, err := resolveWhere(t.schema, s.Where, nil)
	if err != nil {
		return nil, err
	}
	type updOp struct {
		oldRow, newRow catalog.Row
		oldRID, newRID storage.RID
		oldKey, newKey int64
	}
	run := func() (*Result, bool, error) {
		t.mu.RLock()
		defer t.mu.RUnlock()
		// Collect matches from a snapshot scan, then latch and revalidate
		// each: mutating the heap during its own scan would risk visiting
		// relocated rows twice, and the snapshot rows are stale the moment
		// another statement commits.
		var matches []ridMatch
		err := db.planAndScanBound(t, conj, nil, nil, func(rid storage.RID, row catalog.Row, _ []byte) (bool, error) {
			matches = append(matches, ridMatch{rid, row[t.schema.Key].Int})
			return true, nil
		})
		if err != nil {
			return nil, false, err
		}
		sortMatches(matches)
		ws := storage.NewWriteSet(t.pool)
		defer ws.Release()
		var claimed []int64
		defer func() { t.releaseKeys(claimed) }()
		var pend []updOp
		for _, m := range matches {
			rid, row, ok, err := t.lockRow(ws, m.rid, m.key, conj)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			newRow := append(catalog.Row(nil), row...)
			for _, so := range sets {
				newRow[so.col] = so.val
			}
			newKey := newRow[t.schema.Key].Int
			if newKey != m.key {
				// Key change: claim the new key against concurrent inserts
				// (and against this statement funneling two rows onto one
				// key), then probe the committed index.
				if _, ok := t.claimKeys([]int64{newKey}); !ok {
					return nil, false, fmt.Errorf("engine: UPDATE would duplicate primary key %d", newKey)
				}
				claimed = append(claimed, newKey)
				t.idxMu.RLock()
				_, exists := t.pk.Get(newKey)
				t.idxMu.RUnlock()
				if exists {
					return nil, false, fmt.Errorf("engine: UPDATE would duplicate primary key %d", newKey)
				}
			}
			rec, err := catalog.EncodeRow(t.schema, newRow)
			if err != nil {
				return nil, false, err
			}
			nrid, err := t.heap.UpdateW(ws, rid, rec)
			if err != nil {
				return nil, false, err
			}
			pend = append(pend, updOp{row, newRow, rid, nrid, m.key, newKey})
		}
		cp, err := t.commitWrite(ws, func() {
			for _, op := range pend {
				if op.newKey != op.oldKey {
					t.pk.Delete(op.oldKey)
				}
				t.pk.Put(op.newKey, op.newRID)
				for _, sec := range t.secondaries {
					sec.remove(op.oldRow, op.oldRID)
					sec.insert(op.newRow, op.newRID)
				}
			}
		})
		if err != nil {
			return nil, false, err
		}
		res := &Result{Affected: len(pend)}
		for _, op := range pend {
			res.Keys = append(res.Keys, uint64(op.oldKey))
		}
		return res, cp, nil
	}
	res, cp, err := run()
	if err != nil {
		return nil, err
	}
	if cp {
		db.noteCheckpointErr(t.checkpoint())
	}
	return res, nil
}

func (db *Database) execDelete(s *sqlmini.Delete, parts *PartitionSet) (*Result, error) {
	t, err := db.getTable(s.Table)
	if err != nil {
		return nil, err
	}
	conj, err := resolveWhere(t.schema, s.Where, parts)
	if err != nil {
		return nil, err
	}
	type delOp struct {
		row catalog.Row
		rid storage.RID
		key int64
	}
	run := func() (*Result, bool, error) {
		t.mu.RLock()
		defer t.mu.RUnlock()
		var matches []ridMatch
		err := db.planAndScanBound(t, conj, nil, nil, func(rid storage.RID, row catalog.Row, _ []byte) (bool, error) {
			matches = append(matches, ridMatch{rid, row[t.schema.Key].Int})
			return true, nil
		})
		if err != nil {
			return nil, false, err
		}
		sortMatches(matches)
		ws := storage.NewWriteSet(t.pool)
		defer ws.Release()
		var pend []delOp
		for _, m := range matches {
			rid, row, ok, err := t.lockRow(ws, m.rid, m.key, conj)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			if err := t.heap.DeleteW(ws, rid); err != nil {
				return nil, false, err
			}
			pend = append(pend, delOp{row, rid, m.key})
		}
		cp, err := t.commitWrite(ws, func() {
			for _, op := range pend {
				t.pk.Delete(op.key)
				for _, sec := range t.secondaries {
					sec.remove(op.row, op.rid)
				}
			}
		})
		if err != nil {
			return nil, false, err
		}
		res := &Result{Affected: len(pend)}
		for _, op := range pend {
			res.Keys = append(res.Keys, uint64(op.key))
		}
		return res, cp, nil
	}
	res, cp, err := run()
	if err != nil {
		return nil, err
	}
	if cp {
		db.noteCheckpointErr(t.checkpoint())
	}
	return res, nil
}

// projection resolves a column name list to schema indices; nil means *.
func projection(schema catalog.Schema, cols []string) ([]int, error) {
	if cols == nil {
		out := make([]int, len(schema.Columns))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, 0, len(cols))
	for _, name := range cols {
		ci := schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", name)
		}
		out = append(out, ci)
	}
	return out, nil
}

func projColumns(schema catalog.Schema, proj []int) []string {
	out := make([]string, len(proj))
	for i, ci := range proj {
		out[i] = schema.Columns[ci].Name
	}
	return out
}
