package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	return db.write(t, func(tx *writeTx) error {
		if key, ok := tx.claimFresh(keys); !ok {
			return fmt.Errorf("engine: duplicate primary key %d in table %q", key, s.Table)
		}
		for i, rec := range recs {
			rid, err := t.heap.InsertW(tx.ws, rec)
			if err != nil {
				return err
			}
			tx.changes = append(tx.changes, rowChange{after: rows[i], afterRID: rid})
		}
		return nil
	})
}

// selPlan is a SELECT resolved against its table's schema: the WHERE
// conjuncts' columns and operators, the projection and its column names,
// the decode masks, the ORDER BY column, the aggregates. planSelect
// builds one; runSelect runs it with the literals bound for one
// execution. A plan is immutable once built: the plan cache keeps the
// plan a statement ran from and binds each hit's parameters into a copy
// of its conjuncts.
type selPlan struct {
	epoch uint64 // schema epoch the plan was resolved under
	table string
	// conj holds the literals of the statement planned; cap(conj) leaves
	// a slot for the partition conjunct of that statement's execution.
	conj     []boundConj
	hasLimit bool // the statement has a LIMIT: the last parameter
	proj     []int
	cols     []string
	// need marks every column the statement reads. lean, the decode mask
	// of a SELECT whose rows a RowEncoder writes, leaves out the
	// projection: its TEXT cells are read from the record in place, and
	// fixed-width columns decode regardless. rowWriter.decode picks.
	need      []bool
	lean      []bool
	orderCol  int // -1 when no ORDER BY
	orderDesc bool
	aggs      []aggAccum // an aggregate SELECT's accumulators, zeroed
	explain   bool
}

// planSelect resolves sel against t's schema. It is the one place a
// SELECT's names are resolved: the parse path plans every statement
// through it, and the plan cache keeps what it returns. epoch is the
// schema epoch read before t was looked up; callers hold t's read lock.
func planSelect(t *table, sel *sqlmini.Select, epoch uint64) (*selPlan, error) {
	conj, err := resolveWhere(t.schema, sel.Where, nil)
	if err != nil {
		return nil, err
	}
	pl := &selPlan{
		epoch:    epoch,
		table:    sel.Table,
		conj:     conj,
		hasLimit: sel.Limit != -1,
		orderCol: -1,
		explain:  sel.Explain,
	}
	if len(sel.Aggregates) > 0 {
		pl.aggs = make([]aggAccum, len(sel.Aggregates))
		pl.cols = make([]string, len(sel.Aggregates))
		// Decode mask: the key, the filter columns, and the aggregated
		// columns; COUNT(*) aggregates contribute nothing.
		var aggCols []int
		for i, agg := range sel.Aggregates {
			pl.aggs[i] = aggAccum{fn: agg.Func, col: -1}
			pl.cols[i] = sqlmini.AggregateName(agg)
			if agg.Column == "" {
				continue
			}
			ci := t.schema.ColumnIndex(agg.Column)
			if ci < 0 {
				return nil, fmt.Errorf("engine: unknown column %q in %v", agg.Column, agg.Func)
			}
			if (agg.Func == sqlmini.AggSum || agg.Func == sqlmini.AggAvg) && t.schema.Columns[ci].Type == catalog.Text {
				return nil, fmt.Errorf("engine: %v over TEXT column %q", agg.Func, agg.Column)
			}
			pl.aggs[i].col = ci
			aggCols = append(aggCols, ci)
		}
		pl.need = needMask(t.schema, aggCols, conj, -1)
	} else {
		if pl.proj, err = projection(t.schema, sel.Columns); err != nil {
			return nil, err
		}
		pl.cols = projColumns(t.schema, pl.proj)
		if sel.Order != nil {
			oi := t.schema.ColumnIndex(sel.Order.Column)
			if oi < 0 {
				return nil, fmt.Errorf("engine: unknown column %q in ORDER BY", sel.Order.Column)
			}
			pl.orderCol, pl.orderDesc = oi, sel.Order.Desc
		}
		pl.need = needMask(t.schema, pl.proj, conj, pl.orderCol)
		pl.lean = needMask(t.schema, nil, conj, pl.orderCol)
	}
	if sel.Explain {
		pl.cols = []string{"plan"}
	}
	return pl, nil
}

// cacheable reports whether the plan cache may keep pl under the key
// sel normalized to, params being the literals Normalize collected. An
// aggregate that names a column is labeled as the statement spells the
// column, which the key folds, so its plan is run but not kept. Every
// other plan is kept only when conjunct i's literal is parameter i and
// the LIMIT literal is the last, which is what a hit binds; any other
// layout means the normalizer and the parser disagree about sel.
func (pl *selPlan) cacheable(sel *sqlmini.Select, params []sqlmini.Literal) bool {
	for _, a := range pl.aggs {
		if a.col >= 0 {
			return false
		}
	}
	n := len(pl.conj)
	if pl.hasLimit {
		if len(params) != n+1 || params[n] != (sqlmini.Literal{Kind: sqlmini.IntLit, Int: int64(sel.Limit)}) {
			return false
		}
	} else if len(params) != n {
		return false
	}
	for i := range pl.conj {
		if params[i] != pl.conj[i].val {
			return false
		}
	}
	return true
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

// execSelect plans a parsed SELECT and runs it with the statement's own
// literals, its rows written through w. It returns the plan it ran from,
// or nil when the schema epoch moved between its read before the table
// lookup and the check under the table lock: the statement still runs,
// but its plan must not be kept.
func (db *Database) execSelect(s *sqlmini.Select, parts *PartitionSet, w *rowWriter) (*Result, *selPlan, error) {
	// Read the epoch before the table: a DROP and CREATE between the two
	// then shows as a moved epoch under the lock, never as a plan of the
	// dropped table stamped with the new epoch.
	epoch := db.schemaEpoch.Load()
	t, err := db.getTable(s.Table)
	if err != nil {
		return nil, nil, err
	}
	// Shared lifecycle lock for the whole statement: concurrent readers
	// and (on the concurrent write path) writers proceed together; only
	// DDL, checkpoints, and cache teardown exclude it.
	t.mu.RLock()
	defer t.mu.RUnlock()
	pl, err := planSelect(t, s, epoch)
	if err != nil {
		return nil, nil, err
	}
	conj := pl.conj
	if parts != nil {
		// Into the slot resolveWhere left: the plan is not shared yet.
		conj = append(conj, boundConj{col: t.schema.Key, part: parts})
	}
	res, err := db.runSelect(t, pl, conj, s.Limit, w)
	// DDL holds the lock taken above, so this read is ordered against
	// every bump that touched t.
	if db.schemaEpoch.Load() != epoch {
		pl = nil
	}
	return res, pl, err
}

// runSelect runs a plan with its conjuncts bound (conj: pl.conj's
// columns and operators with this execution's literals, then the
// partition conjunct, if any) and limit (-1 when absent), its rows
// written through w. Callers hold the table read lock.
func (db *Database) runSelect(t *table, pl *selPlan, conj []boundConj, limit int, w *rowWriter) (*Result, error) {
	res := w.start(pl.cols)
	if pl.explain {
		t.idxMu.RLock()
		p := choosePlanBound(t, conj)
		t.idxMu.RUnlock()
		plan := catalog.Row{catalog.TextValue(p.Describe(t, pl.need))}
		return res, w.row(catalog.Schema{}, []int{0}, plan, nil)
	}
	if limit == 0 {
		// No row to return, so no tuple to charge: Keys stays empty too.
		// An aggregate's summary row is withheld with every tuple it
		// would have been charged for.
		return res, nil
	}
	if pl.aggs != nil {
		return db.execAggregate(t, pl, conj, res, w)
	}
	decode := w.decode(pl)
	// emit returns one row; len(res.Keys) counts the rows returned.
	emit := func(row catalog.Row, rec []byte) error {
		res.Keys = append(res.Keys, uint64(row[t.schema.Key].Int))
		return w.row(t.schema, pl.proj, row, rec)
	}
	key := t.schema.Key
	residual := hasResidual(conj, key)
	// An ORDER BY key with a LIMIT walks the primary index in key order
	// and stops at its LIMIT: nothing is materialized, copied or sorted.
	stream := pl.orderCol == key && limit >= 0 && keyOrdered(t, conj)
	sorts := pl.orderCol >= 0 && !stream
	spec := scanSpec{ex: w.examine(residual || (sorts && limit >= 0)), keys: &res.Keys, limit: limit}
	if stream {
		spec.dir = 1
		if pl.orderDesc {
			spec.dir = -1
		}
		if !residual {
			spec.take = limit // every candidate matches
		}
	}

	if sorts {
		oi := pl.orderCol
		// Materialize, sort, then emit up to the limit. A row keeps what
		// the writer will read of its record.
		type heldRow struct {
			row catalog.Row
			rec []byte
		}
		var rows []heldRow
		err := db.planAndScanBound(t, conj, pl.need, decode, spec, func(_ storage.RID, row catalog.Row, rec []byte) (bool, error) {
			rows = append(rows, heldRow{append(catalog.Row(nil), row...), w.hold(rec)})
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		sort.SliceStable(rows, func(a, b int) bool {
			c, _ := rows[a].row[oi].Compare(rows[b].row[oi])
			if pl.orderDesc {
				return c > 0
			}
			return c < 0
		})
		if limit >= 0 && len(rows) > limit {
			if ex := spec.ex; ex != nil && ex.narrow {
				for _, h := range rows[limit:] {
					ex.extra = append(ex.extra, uint64(h.row[key].Int))
				}
			}
			rows = rows[:limit]
		}
		for _, h := range rows {
			if err := emit(h.row, h.rec); err != nil {
				return nil, err
			}
		}
		w.examined = spec.ex.charge(res.Keys)
		return res, nil
	}

	err := db.planAndScanBound(t, conj, pl.need, decode, spec, func(_ storage.RID, row catalog.Row, rec []byte) (bool, error) {
		if err := emit(row, rec); err != nil {
			return false, err
		}
		return limit < 0 || len(res.Keys) < limit, nil
	})
	if err != nil {
		return nil, err
	}
	w.examined = spec.ex.charge(res.Keys)
	return res, nil
}

// hasResidual reports whether a conjunct is on a column other than the
// primary key: one a scan decides on the row, after reading it.
func hasResidual(conj []boundConj, key int) bool {
	for i := range conj {
		if conj[i].col != key {
			return true
		}
	}
	return false
}

// keyOrdered reports whether conj plans a path that can walk the
// primary index in key order: any but a secondary-equality lookup, whose
// RIDs carry no key. Secondaries change only under DDL, which the
// caller's table read lock excludes.
func keyOrdered(t *table, conj []boundConj) bool {
	if len(t.secondaries) == 0 {
		return true
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return choosePlanBound(t, conj).kind != planSecondaryEq
}

// aggAccum accumulates one aggregate function over a subset of the
// matching rows. Accumulators are mergeable so the parallel scan
// executor can fold per-chunk partials into the final answer in page
// order (deterministic float sums for a given heap layout).
type aggAccum struct {
	fn    sqlmini.AggFunc
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

// execAggregate evaluates COUNT/SUM/AVG/MIN/MAX over the matching rows,
// writing one summary row through w into res. Keys lists every tuple
// included in the aggregate: the delay defense treats an aggregate as
// "the aggregate of multiple simple queries" (§2.1), so an adversary
// cannot cheaply walk the database through SUMs. A full scan folds
// chunk by chunk (aggregateFullScan); the index paths fold row by row.
// Callers hold the table read lock.
func (db *Database) execAggregate(t *table, pl *selPlan, conj []boundConj, res *Result, w *rowWriter) (*Result, error) {
	accs := append([]aggAccum(nil), pl.aggs...)
	spec := scanSpec{
		ex:   w.examine(hasResidual(conj, t.schema.Key)),
		keys: &res.Keys,
		fullScan: func() error {
			return db.aggregateFullScan(t, conj, pl.need, accs, res)
		},
	}
	err := db.planAndScanBound(t, conj, pl.need, pl.need, spec, func(_ storage.RID, row catalog.Row, _ []byte) (bool, error) {
		res.Keys = append(res.Keys, uint64(row[t.schema.Key].Int))
		for i := range accs {
			accs[i].observe(row)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	w.examined = spec.ex.charge(res.Keys)

	out := make(catalog.Row, len(accs))
	proj := make([]int, len(out))
	for i, a := range accs {
		proj[i] = i
		switch a.fn {
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
			return nil, fmt.Errorf("engine: unsupported aggregate %v", a.fn)
		}
	}
	return res, w.row(catalog.Schema{}, proj, out, nil)
}

// rowChange is one row a write statement changed: its image before the
// statement and after it, each with its RID. An INSERT's row has no
// before image and a DELETE's no after image. The commit derives every
// index change from the pair (writeTx.applyIndexes).
type rowChange struct {
	before, after       catalog.Row
	beforeRID, afterRID storage.RID
}

// writeTx is one write statement between its table lock and its commit:
// the write set its heap changes go through, the keys it claimed, and the
// rows it changed.
type writeTx struct {
	t       *table
	ws      *storage.WriteSet
	claimed []int64
	changes []rowChange
}

// claimFresh claims keys for the rest of the statement, so two statements
// cannot both give a row the same key, then probes the committed index.
// It reports the first key already claimed (by this statement too) or
// already live. The claims drop after the commit publishes.
func (tx *writeTx) claimFresh(keys []int64) (int64, bool) {
	t := tx.t
	if busy, ok := t.claimKeys(keys); !ok {
		return busy, false
	}
	tx.claimed = append(tx.claimed, keys...)
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	for _, key := range keys {
		if _, exists := t.pk.Get(key); exists {
			return key, false
		}
	}
	return 0, true
}

// applyIndexes makes the index changes tx's rows imply: a before image
// leaves the indexes, an after image enters them. commitWrite runs it
// under idxMu together with the publish.
func (tx *writeTx) applyIndexes() {
	t := tx.t
	k := t.schema.Key
	for _, c := range tx.changes {
		if c.before != nil {
			if c.after == nil || c.after[k].Int != c.before[k].Int {
				t.pk.Delete(c.before[k].Int)
			}
			for _, sec := range t.secondaries {
				sec.remove(c.before, c.beforeRID)
			}
		}
		if c.after != nil {
			t.pk.Put(c.after[k].Int, c.afterRID)
			for _, sec := range t.secondaries {
				sec.insert(c.after, c.afterRID)
			}
		}
	}
}

// write is the lifecycle every INSERT, UPDATE and DELETE runs through.
// Under t's read lock, stage makes the statement's heap changes through
// tx.ws and records each row it changed in tx.changes; commitWrite then
// logs the pages and publishes them with the index changes, or, on a
// failure anywhere before that, nothing publishes and the statement has
// rolled back. The write set and the key claims drop after the commit,
// and a checkpoint the log asked for runs once the lock is released.
// The result counts the rows changed and lists the keys of those that
// existed before the statement.
func (db *Database) write(t *table, stage func(tx *writeTx) error) (*Result, error) {
	tx := writeTx{t: t}
	cp, err := func() (bool, error) {
		t.mu.RLock()
		defer t.mu.RUnlock()
		tx.ws = storage.NewWriteSet(t.pool)
		defer tx.ws.Release()
		defer func() { t.releaseKeys(tx.claimed) }()
		if err := stage(&tx); err != nil {
			return false, err
		}
		return t.commitWrite(tx.ws, tx.applyIndexes)
	}()
	if err != nil {
		return nil, err
	}
	if cp {
		db.noteCheckpointErr(t.checkpoint())
	}
	res := &Result{Affected: len(tx.changes)}
	for _, c := range tx.changes {
		if c.before != nil {
			res.Keys = append(res.Keys, uint64(c.before[t.schema.Key].Int))
		}
	}
	return res, nil
}

// writeMatches is write for a statement that changes the rows conj
// matches (UPDATE, DELETE). It collects the matches from a snapshot scan
// (changing the heap during its own scan could visit a relocated row
// twice), latches them in (page, slot) order and revalidates each
// (lockRow), since the snapshot is stale the moment another statement
// commits. change makes one latched row's heap change and returns its
// after image, nil when the row is gone.
func (db *Database) writeMatches(t *table, conj []boundConj, change func(tx *writeTx, rid storage.RID, row catalog.Row) (catalog.Row, storage.RID, error)) (*Result, error) {
	type match struct {
		rid storage.RID
		key int64 // the key the snapshot saw at rid
	}
	return db.write(t, func(tx *writeTx) error {
		var matches []match
		err := db.planAndScanBound(t, conj, nil, nil, scanSpec{}, func(rid storage.RID, row catalog.Row, _ []byte) (bool, error) {
			matches = append(matches, match{rid, row[t.schema.Key].Int})
			return true, nil
		})
		if err != nil {
			return err
		}
		// A write set blocks on a latch only above its held high-water
		// mark (see WriteSet), so latching in (page, slot) order lets the
		// common, uncontended statement wait for every row instead of
		// skipping it.
		slices.SortFunc(matches, func(a, b match) int {
			if c := cmp.Compare(a.rid.Page, b.rid.Page); c != 0 {
				return c
			}
			return cmp.Compare(a.rid.Slot, b.rid.Slot)
		})
		for _, m := range matches {
			rid, row, ok, err := t.lockRow(tx.ws, m.rid, m.key, conj)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			after, arid, err := change(tx, rid, row)
			if err != nil {
				return err
			}
			tx.changes = append(tx.changes, rowChange{before: row, after: after, beforeRID: rid, afterRID: arid})
		}
		return nil
	})
}

// setOp is one resolved SET assignment of an UPDATE.
type setOp struct {
	col int
	val catalog.Value
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
	key := t.schema.Key
	return db.writeMatches(t, conj, func(tx *writeTx, rid storage.RID, row catalog.Row) (catalog.Row, storage.RID, error) {
		newRow := append(catalog.Row(nil), row...)
		for _, so := range sets {
			newRow[so.col] = so.val
		}
		if k := newRow[key].Int; k != row[key].Int {
			if _, ok := tx.claimFresh([]int64{k}); !ok {
				return nil, rid, fmt.Errorf("engine: UPDATE would duplicate primary key %d", k)
			}
		}
		rec, err := catalog.EncodeRow(t.schema, newRow)
		if err != nil {
			return nil, rid, err
		}
		nrid, err := t.heap.UpdateW(tx.ws, rid, rec)
		return newRow, nrid, err
	})
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
	return db.writeMatches(t, conj, func(tx *writeTx, rid storage.RID, _ catalog.Row) (catalog.Row, storage.RID, error) {
		return nil, rid, t.heap.DeleteW(tx.ws, rid)
	})
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
