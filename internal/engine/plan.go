package engine

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// planKind enumerates access paths.
type planKind int

const (
	planImpossible planKind = iota + 1
	planPKPoint
	planPKRange
	planSecondaryEq
	planFullScan
)

// boundConj is one WHERE conjunct with its column resolved to a schema
// index, so per-row evaluation compares by position instead of doing a
// string lookup per conjunct per row.
type boundConj struct {
	col int
	op  sqlmini.CmpOp
	val sqlmini.Literal
	// part, when set, makes this the partition conjunct: col is the
	// primary key and a row matches iff its key hashes into the set. op
	// and val stay zero, which is what keeps the planner from reading a
	// key bound or an index probe out of it.
	part *PartitionSet
}

// resolveWhere validates the WHERE clause's column references against
// the schema once and returns the conjuncts in bound form, followed by
// the partition conjunct when parts is non-nil.
func resolveWhere(schema catalog.Schema, where *sqlmini.Where, parts *PartitionSet) ([]boundConj, error) {
	var conj []boundConj
	if where != nil {
		conj = make([]boundConj, 0, len(where.Conjuncts)+1)
		for _, c := range where.Conjuncts {
			ci := schema.ColumnIndex(c.Column)
			if ci < 0 {
				return nil, fmt.Errorf("engine: unknown column %q in WHERE", c.Column)
			}
			conj = append(conj, boundConj{col: ci, op: c.Op, val: c.Value})
		}
	}
	if parts != nil {
		conj = append(conj, boundConj{col: schema.Key, part: parts})
	}
	return conj, nil
}

// queryPlan is the chosen access path for a WHERE clause. Bounds are
// held by value (with presence flags) rather than as pointers so
// choosing a plan allocates nothing on the point-lookup hot path.
type queryPlan struct {
	kind    planKind
	eq      int64
	lo, hi  int64
	hasLo   bool
	hasHi   bool
	sec     *secondary
	secRIDs []storage.RID
}

// Describe renders the plan for EXPLAIN output; need is the statement's
// decode mask, which marks a primary-key plan "(index only)" when the
// statement reads nothing but the key.
func (p queryPlan) Describe(t *table, need []bool) string {
	keyCol := t.schema.Columns[t.schema.Key].Name
	only := ""
	if keyOnly(t.schema, need) {
		only = " (index only)"
	}
	switch p.kind {
	case planImpossible:
		return "no-op (contradictory equality predicates)"
	case planPKPoint:
		return fmt.Sprintf("primary key point lookup on %q = %d%s", keyCol, p.eq, only)
	case planPKRange:
		lo, hi := "-inf", "+inf"
		if p.hasLo {
			lo = fmt.Sprintf("%d", p.lo)
		}
		if p.hasHi {
			hi = fmt.Sprintf("%d", p.hi)
		}
		return fmt.Sprintf("primary key range scan on %q in [%s, %s]%s", keyCol, lo, hi, only)
	case planSecondaryEq:
		return fmt.Sprintf("secondary index %q equality on %q (%d candidate rows)",
			p.sec.def.Name, p.sec.def.Column, len(p.secRIDs))
	default:
		return "full table scan"
	}
}

// choosePlanBound picks an access path for resolved conjuncts. Paths,
// in preference order: primary key point lookup, secondary index
// equality, primary key range scan, full scan. The choice is
// value-dependent (contradiction detection, index probes), so cached
// plans re-run it per execution with the freshly bound parameters.
func choosePlanBound(t *table, conj []boundConj) queryPlan {
	key := t.schema.Key

	var p queryPlan
	hasEq := false
	impossible := false
	for i := range conj {
		c := &conj[i]
		if c.col != key || c.val.Kind != sqlmini.IntLit {
			continue
		}
		v := c.val.Int
		switch c.op {
		case sqlmini.OpEq:
			if hasEq && p.eq != v {
				impossible = true
			}
			p.eq = v
			hasEq = true
		case sqlmini.OpGe:
			if !p.hasLo || v > p.lo {
				p.lo, p.hasLo = v, true
			}
		case sqlmini.OpGt:
			if w := v + 1; !p.hasLo || w > p.lo {
				p.lo, p.hasLo = w, true
			}
		case sqlmini.OpLe:
			if !p.hasHi || v < p.hi {
				p.hi, p.hasHi = v, true
			}
		case sqlmini.OpLt:
			if w := v - 1; !p.hasHi || w < p.hi {
				p.hi, p.hasHi = w, true
			}
		}
	}
	switch {
	case impossible:
		p.kind = planImpossible
		return p
	case hasEq:
		p.kind = planPKPoint
		return p
	}

	// Secondary index path: an equality conjunct on an indexed non-key
	// column, considered only when the primary key gives no point handle.
	for i := range conj {
		c := &conj[i]
		if c.op != sqlmini.OpEq || c.col == key {
			continue
		}
		sec := t.findSecondaryByCol(c.col)
		if sec == nil {
			continue
		}
		if rids, ok := sec.lookupLiteral(c.val); ok {
			p.kind = planSecondaryEq
			p.sec = sec
			p.secRIDs = rids
			return p
		}
	}

	if p.hasLo || p.hasHi {
		p.kind = planPKRange
		return p
	}
	p.kind = planFullScan
	return p
}

// rowScratch is a pooled decode buffer for the index-driven scan paths
// (point, range, secondary), which decode one row at a time on the
// calling goroutine, the RID list of a narrow range, and the pages the
// narrow range and secondary paths read in batches.
type rowScratch struct {
	row   catalog.Row
	rids  []storage.RID
	pages storage.PageBatch
}

// heldRangeKeys bounds the key ranges whose index entries a range scan
// collects before reading any row (see planAndScanBound): at most this
// many RIDs, 32 KiB of them, whatever the table holds.
const heldRangeKeys = 4096

var rowScratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// keyOnly reports whether a statement whose decode mask is need reads
// nothing but the primary key: every conjunct, aggregate, projected and
// ORDER BY column is the key. The primary index then answers it alone.
// A nil mask means every column, which is the key alone only on a table
// that has no other column.
func keyOnly(schema catalog.Schema, need []bool) bool {
	if need == nil {
		return len(schema.Columns) == 1
	}
	for i, b := range need {
		if b && i != schema.Key {
			return false
		}
	}
	return true
}

// scanFn receives each row a scan matches: its rid, the row decoded
// under the scan's decode mask, and the record it was decoded from — nil
// for a row the primary index answered alone. It returns (continue,
// error); scanning stops on either signal.
type scanFn func(rid storage.RID, row catalog.Row, rec []byte) (bool, error)

// planAndScanBound picks an access path for the resolved conjuncts and
// streams matching rows to fn. need marks the columns the statement
// reads (nil: all of them); decode, the columns the scan decodes into
// values (see catalog.DecodeRowInto), is need or a subset of it that
// covers every conjunct column — a caller that reads a TEXT cell from the
// record instead leaves it out.
//
// Every path reads through a page snapshot consistent with the index
// state it was planned against: the plan (and any RIDs it captured) is
// taken under the index read lock together with the snapshot epoch, and
// commits publish their page versions and index changes atomically
// under the index write lock, so a scan never sees half a statement.
// Point lookups read optimistically at the current epoch without
// registering (no shared mutable state on the hot path) and retry once
// with a registered snapshot if version pruning got there first.
//
// A key-only statement (keyOnly(need)) on the primary-key point and
// range paths never reads the heap: each row comes from the index entry
// (key, rid). That is the snapshot's answer because the index is the
// snapshot. The range path holds idxMu shared for its whole traversal,
// the point path reads pk.Get under it, and every commit publishes its
// page versions and applies its index changes together under idxMu
// exclusive. So while the lock is held no statement can be half
// applied: every entry seen is a row visible at the current epoch, with
// that key, at that rid, and every row visible there has its entry.
// Nothing can be pruned from under an index entry, so a key-only point
// read needs no optimistic retry. The row handed to fn holds
// IntValue(key) in the key column and the zero Value of its type in
// every other; the mask says nobody reads them. UPDATE and DELETE pass
// need = nil, which is key-only only on a table whose one column is the
// key, and there the (rid, key) they collect is exactly the index entry:
// lockRow revalidates each against its latched page either way. Full
// scans stay on the heap (their row order is page order, which decides
// a LIMIT without ORDER BY), and so does the secondary-equality path,
// whose RIDs carry no key.
//
// Rows and records passed to fn are only valid for the duration of the
// call: the scan paths decode into reused scratch buffers, and a record
// aliases its page. Callers that retain either must copy it.
func (db *Database) planAndScanBound(t *table, conj []boundConj, need, decode []bool, fn scanFn) error {
	t.idxMu.RLock()
	p := choosePlanBound(t, conj)

	if p.kind == planImpossible {
		t.idxMu.RUnlock()
		return nil
	}
	if p.kind == planFullScan {
		t.idxMu.RUnlock()
		return db.fullScan(t, conj, decode, fn)
	}

	sc := rowScratchPool.Get().(*rowScratch)
	defer rowScratchPool.Put(sc)
	emit := func(rid storage.RID, row catalog.Row, rec []byte) (cont bool, err error) {
		ok, err := matchesBound(row, conj)
		if err != nil || !ok {
			return true, err
		}
		return fn(rid, row, rec)
	}
	// emitPage decodes rid's record from pg, its page's version at the
	// statement's snapshot, and emits the row. The record aliases pg.
	emitPage := func(rid storage.RID, pg *storage.Page) (cont bool, err error) {
		rec, err := pg.Record(int(rid.Slot))
		if err != nil {
			return false, fmt.Errorf("engine: reading row %v: %w", rid, err)
		}
		row, err := catalog.DecodeRowInto(t.schema, rec, sc.row[:0], decode)
		if err != nil {
			return false, err
		}
		sc.row = row
		return emit(rid, row, rec)
	}
	// emitAt reads rid's record as of snapshot snap through the pool;
	// vis=false means its page has no version visible there. The record
	// aliases an immutable published page version, valid while the
	// snapshot is registered.
	emitAt := func(rid storage.RID, snap uint64) (vis, cont bool, err error) {
		pg, vis, err := t.pool.FetchAt(rid.Page, snap)
		if err != nil || !vis {
			return vis, true, err
		}
		cont, err = emitPage(rid, pg)
		return true, cont, err
	}
	// emitRIDs reads the rows of rids, collected under idxMu, at the
	// snapshot snap registered with them. The first row is read through
	// the pool, which loads its page on a miss: the page a range starts on
	// is where the workload's hot keys are, and writers find it resident.
	// The rest resolve their pages a batch at a time
	// (storage.Pool.ReadBatch): a page the pool does not hold is read
	// around it, a run of them in one pager call. A record aliases the
	// batch's buffer until the next batch.
	emitRIDs := func(rids []storage.RID, snap uint64) error {
		if len(rids) == 0 {
			return nil
		}
		if _, cont, err := emitAt(rids[0], snap); err != nil || !cont {
			return err
		}
		rids = rids[1:]
		defer sc.pages.Clear()
		for len(rids) > 0 {
			n, err := t.pool.ReadBatch(&sc.pages, rids, snap)
			if err != nil {
				return err
			}
			for _, rid := range rids[:n] {
				pg, vis := sc.pages.At(rid.Page)
				if !vis {
					continue
				}
				if cont, err := emitPage(rid, pg); err != nil || !cont {
					return err
				}
			}
			rids = rids[n:]
		}
		return nil
	}
	// The key-only row: built once, its key column set per index entry.
	var keyRow catalog.Row
	if (p.kind == planPKPoint || p.kind == planPKRange) && keyOnly(t.schema, need) {
		keyRow = sc.row[:0]
		for _, c := range t.schema.Columns {
			keyRow = append(keyRow, catalog.Value{Type: c.Type})
		}
		sc.row = keyRow
	}
	emitKey := func(key int64, rid storage.RID) (cont bool, err error) {
		keyRow[t.schema.Key] = catalog.IntValue(key)
		return emit(rid, keyRow, nil)
	}

	switch p.kind {
	case planPKPoint:
		rid, found := t.pk.Get(p.eq)
		if keyRow != nil {
			t.idxMu.RUnlock()
			if !found {
				return nil
			}
			_, err := emitKey(p.eq, rid)
			return err
		}
		// Optimistic: (rid, epoch) captured together under idxMu are
		// mutually consistent, and the row a committed index entry points
		// at is live at that epoch. The only way the read comes back
		// invisible is the unregistered version having been pruned —
		// retry once with a registered snapshot, re-reading the index.
		snap := t.pool.Epoch()
		t.idxMu.RUnlock()
		if !found {
			return nil
		}
		vis, _, err := emitAt(rid, snap)
		if err != nil || vis {
			return err
		}
		t.idxMu.RLock()
		rid, found = t.pk.Get(p.eq)
		snap = t.pool.BeginSnapshot()
		t.idxMu.RUnlock()
		defer t.pool.EndSnapshot(snap)
		if !found {
			return nil
		}
		_, _, err = emitAt(rid, snap)
		return err
	case planSecondaryEq:
		// The RID slice is immutable once published (index maintenance
		// replaces slices wholesale), so it outlives the lock; the
		// snapshot is registered before the lock drops so the versions
		// the RIDs point at stay reachable.
		snap := t.pool.BeginSnapshot()
		t.idxMu.RUnlock()
		defer t.pool.EndSnapshot(snap)
		return emitRIDs(p.secRIDs, snap)
	default: // planPKRange
		// The B+tree traversal itself needs the index lock, and a commit
		// waits for every reader holding it. A range narrow enough that
		// its entries fit heldRangeKeys is walked under the lock into a
		// list of RIDs and read after the lock drops, against a snapshot
		// registered under it, as the secondary path reads its RIDs: the
		// commit then waits for the walk, not for the rows' reads and
		// what fn does with them. A wider range holds the lock to the
		// end, so a LIMIT still stops it early. A key-only traversal
		// reads no page and registers no snapshot.
		var lop, hip *int64
		if p.hasLo {
			lop = &p.lo
		}
		if p.hasHi {
			hip = &p.hi
		}
		if keyRow == nil && p.hasLo && p.hasHi && p.hi >= p.lo && uint64(p.hi)-uint64(p.lo) < heldRangeKeys {
			snap := t.pool.BeginSnapshot()
			rids := sc.rids[:0]
			t.pk.AscendRange(lop, hip, func(_ int64, rid storage.RID) bool {
				rids = append(rids, rid)
				return true
			})
			t.idxMu.RUnlock()
			defer t.pool.EndSnapshot(snap)
			sc.rids = rids
			return emitRIDs(rids, snap)
		}
		defer t.idxMu.RUnlock()
		var snap uint64
		if keyRow == nil {
			snap = t.pool.BeginSnapshot()
			defer t.pool.EndSnapshot(snap)
		}
		var scanErr error
		t.pk.AscendRange(lop, hip, func(key int64, rid storage.RID) bool {
			var cont bool
			var err error
			if keyRow != nil {
				cont, err = emitKey(key, rid)
			} else {
				_, cont, err = emitAt(rid, snap)
			}
			if err != nil {
				scanErr = err
				return false
			}
			return cont
		})
		return scanErr
	}
}

// matchesBound evaluates resolved conjuncts against a row. Every scan
// path and lockRow decide a match here and nowhere else. The loop is by
// index and the comparison takes the cell and the literal by address: a
// boundConj is eight words, a cell and a literal five each, and copying
// them per conjunct per row showed on scans.
func matchesBound(row catalog.Row, conj []boundConj) (bool, error) {
	for i := range conj {
		c := &conj[i]
		if c.part != nil {
			if !c.part.contains(row[c.col].Int) {
				return false, nil
			}
			continue
		}
		cmp, err := compareValueLiteral(&row[c.col], &c.val)
		if err != nil {
			return false, err
		}
		var ok bool
		switch c.op {
		case sqlmini.OpEq:
			ok = cmp == 0
		case sqlmini.OpNe:
			ok = cmp != 0
		case sqlmini.OpLt:
			ok = cmp < 0
		case sqlmini.OpLe:
			ok = cmp <= 0
		case sqlmini.OpGt:
			ok = cmp > 0
		case sqlmini.OpGe:
			ok = cmp >= 0
		default:
			return false, fmt.Errorf("engine: invalid operator %v", c.op)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// compareValueLiteral compares a column value with a literal, coercing
// numerics to float when the types differ.
func compareValueLiteral(v *catalog.Value, lit *sqlmini.Literal) (int, error) {
	switch v.Type {
	case catalog.Int:
		switch lit.Kind {
		case sqlmini.IntLit:
			return cmpInt(v.Int, lit.Int), nil
		case sqlmini.FloatLit:
			return cmpFloat(float64(v.Int), lit.Float), nil
		}
	case catalog.Float:
		switch lit.Kind {
		case sqlmini.FloatLit:
			return cmpFloat(v.Float, lit.Float), nil
		case sqlmini.IntLit:
			return cmpFloat(v.Float, float64(lit.Int)), nil
		}
	case catalog.Text:
		if lit.Kind == sqlmini.StringLit {
			return strings.Compare(v.Str, lit.Str), nil
		}
	}
	return 0, fmt.Errorf("engine: cannot compare %v column with literal %v", v.Type, *lit)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
