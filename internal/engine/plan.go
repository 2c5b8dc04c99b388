package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
		return "no-op (contradictory key predicates)"
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

// foldsIntoBounds reports whether choosePlanBound folds c into a key
// plan's bounds: an integer comparison on the key by =, <, <=, > or >=.
// Every other conjunct on the key is keyFilters'.
func foldsIntoBounds(c *boundConj, keyCol int) bool {
	if c.col != keyCol || c.part != nil || c.val.Kind != sqlmini.IntLit {
		return false
	}
	switch c.op {
	case sqlmini.OpEq, sqlmini.OpLt, sqlmini.OpLe, sqlmini.OpGt, sqlmini.OpGe:
		return true
	}
	return false
}

// choosePlanBound picks an access path for resolved conjuncts. Paths,
// in preference order: primary key point lookup, secondary index
// equality, primary key range scan, full scan. The choice is
// value-dependent (contradiction detection, index probes), so cached
// plans re-run it per execution with the freshly bound parameters.
//
// The folded bounds decide every conjunct foldsIntoBounds names, for
// every key the point and range plans hand on: equalities that disagree,
// a point outside the bounds, and a strict bound past the end of int64
// plan as impossible, so no row is read to reject them.
func choosePlanBound(t *table, conj []boundConj) queryPlan {
	key := t.schema.Key

	var p queryPlan
	hasEq := false
	impossible := false
	for i := range conj {
		c := &conj[i]
		if !foldsIntoBounds(c, key) {
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
			if v == math.MaxInt64 {
				impossible = true
			} else if w := v + 1; !p.hasLo || w > p.lo {
				p.lo, p.hasLo = w, true
			}
		case sqlmini.OpLe:
			if !p.hasHi || v < p.hi {
				p.hi, p.hasHi = v, true
			}
		case sqlmini.OpLt:
			if v == math.MinInt64 {
				impossible = true
			} else if w := v - 1; !p.hasHi || w < p.hi {
				p.hi, p.hasHi = w, true
			}
		}
	}
	if hasEq && (p.hasLo && p.eq < p.lo || p.hasHi && p.eq > p.hi) {
		impossible = true
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

// scanSpec is what a statement asks of planAndScanBound besides its
// rows. The zero value asks for nothing: rows in the order the plan
// reads them, no record of what was examined.
type scanSpec struct {
	// dir asks for the rows in primary-key order: 1 ascending, -1
	// descending. The point, range and full-scan plans walk the primary
	// index that way; a secondary-equality plan has no key order, so a
	// statement that asks must not plan one (see keyOrdered).
	dir int
	// take, when positive, is how many candidates a key-order walk can
	// need: the statement's LIMIT, when every candidate matches.
	take int
	// ex, when non-nil, decides whether the candidate set is narrow and,
	// if it is, records the candidates the scan read and rejected.
	ex *examined
	// fullScan, when set, runs an unordered full scan in place of the
	// row-by-row one (an aggregate folds chunk by chunk).
	fullScan func() error
	// keys, when non-nil, is the Keys the statement appends one key to
	// per row it returns or folds. Once the plan is chosen it is sized in
	// one allocation (sizeKeys), capped at limit when that is positive.
	keys  *[]uint64
	limit int
}

// sizeKeys grows keys, still empty, to hold the most rows a range plan
// p can return: its bounded key span, capped at limit when that is
// positive and at heldRangeKeys. A plan without both bounds leaves keys
// as it is: a point fits the slots it has.
func sizeKeys(p queryPlan, keys *[]uint64, limit int) {
	if p.kind != planPKRange || !p.hasLo || !p.hasHi || p.hi < p.lo {
		return
	}
	n := heldRangeKeys
	if span := uint64(p.hi) - uint64(p.lo); span < heldRangeKeys {
		n = int(span) + 1
	}
	if limit > 0 {
		n = min(n, limit)
	}
	if n > cap(*keys) {
		*keys = make([]uint64, 0, n)
	}
}

// examined is a SELECT's record of what it read without returning, for
// the narrow charge (Prepared.ExamineUpTo, Prepared.Examined). The
// candidate set is the primary-index entries the key conjuncts admit,
// the partition conjunct included: the rows the statement may read. It
// is narrow when it holds at most bound entries. A narrow statement is
// charged every candidate it read: its returned keys plus extra.
type examined struct {
	bound  int
	narrow bool
	// extra lists the keys of candidates read and not returned: rejected
	// by a conjunct on another column, or sorted past the LIMIT.
	extra []uint64
}

// charge returns what a statement that returned keys is charged for:
// keys and every other candidate it read when the candidate set was
// narrow; nil, meaning keys alone, otherwise.
func (ex *examined) charge(keys []uint64) []uint64 {
	if ex == nil || !ex.narrow || len(ex.extra) == 0 {
		return nil
	}
	return append(slices.Clip(keys), ex.extra...)
}

// keyFilters reports whether conj holds a conjunct on the primary key
// that the plan's key bounds do not already decide (foldsIntoBounds):
// the partition conjunct, a !=, a comparison with a literal that is not
// an integer. Only then does an index walk run keyAdmits on its entries.
func keyFilters(conj []boundConj, keyCol int) bool {
	for i := range conj {
		c := &conj[i]
		if c.col == keyCol && !foldsIntoBounds(c, keyCol) {
			return true
		}
	}
	return false
}

// keyAdmits decides the conjuncts on the primary key — bounds, other
// comparisons, the partition conjunct — for one index entry, so an entry
// they reject is skipped before its row's page is read.
func keyAdmits(key int64, conj []boundConj, keyCol int) (bool, error) {
	v := catalog.IntValue(key)
	for i := range conj {
		c := &conj[i]
		if c.col != keyCol {
			continue
		}
		if c.part != nil {
			if !c.part.contains(key) {
				return false, nil
			}
			continue
		}
		cmp, err := compareValueLiteral(&v, &c.val)
		if err != nil {
			return false, err
		}
		if holds, known := opHolds(c.op, cmp); !holds {
			if !known {
				return false, errOperator(c.op)
			}
			return false, nil
		}
	}
	return true, nil
}

// planAndScanBound picks an access path for the resolved conjuncts and
// streams matching rows to fn. need marks the columns the statement
// reads (nil: all of them); decode, the columns the scan decodes into
// values (see catalog.DecodeRowInto), is need or a subset of it that
// covers every conjunct column — a caller that reads a TEXT cell from the
// record instead leaves it out. spec asks for key order and the narrow
// charge's record.
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
// The primary-key paths decide every conjunct on the key once, on the
// index entry, before its row is read: the plan's bounds those it folds
// (a point outside them plans as impossible), keyAdmits the rest
// (keyFilters). A row is checked (matchesBound) only when a conjunct is
// on another column (hasResidual), and then for all of them. A
// key-ordered walk (spec.dir) follows the primary index within the key
// bounds, the whole index for a full-scan plan, and stops when fn does:
// an ORDER BY key LIMIT n reads the rows up to its nth match and nothing
// past them.
//
// A key-only statement (keyOnly(need)) on the primary-key point and
// range paths, and on a key-ordered walk, never reads the heap: each row
// comes from the index entry (key, rid). That is the snapshot's answer
// because the index is the snapshot. The walk holds idxMu shared for its
// whole traversal, the point path reads pk.Get under it, and every
// commit publishes its page versions and applies its index changes
// together under idxMu exclusive. So while the lock is held no statement
// can be half applied: every entry seen is a row visible at the current
// epoch, with that key, at that rid, and every row visible there has its
// entry. Nothing can be pruned from under an index entry, so a key-only
// point read needs no optimistic retry. The row handed to fn holds
// IntValue(key) in the key column and the zero Value of its type in
// every other; the mask says nobody reads them. UPDATE and DELETE pass
// need = nil, which is key-only only on a table whose one column is the
// key, and there the (rid, key) they collect is exactly the index entry:
// lockRow revalidates each against its latched page either way. An
// unordered full scan stays on the heap (its row order is page order,
// which decides a LIMIT without ORDER BY), and so does the
// secondary-equality path, whose RIDs carry no key.
//
// Rows and records passed to fn are only valid for the duration of the
// call: the scan paths decode into reused scratch buffers, and a record
// aliases its page. Callers that retain either must copy it.
func (db *Database) planAndScanBound(t *table, conj []boundConj, need, decode []bool, spec scanSpec, fn scanFn) error {
	t.idxMu.RLock()
	p := choosePlanBound(t, conj)
	if spec.keys != nil {
		sizeKeys(p, spec.keys, spec.limit)
	}
	ex := spec.ex
	if ex != nil {
		// At most one candidate; a range or a full scan counts its own.
		ex.narrow = p.kind == planPKPoint
	}

	if p.kind == planImpossible {
		t.idxMu.RUnlock()
		return nil
	}
	if p.kind == planFullScan && spec.dir == 0 && ex == nil {
		t.idxMu.RUnlock()
		if spec.fullScan != nil {
			return spec.fullScan()
		}
		return db.fullScan(t, conj, decode, fn)
	}

	key := t.schema.Key
	filter := keyFilters(conj, key)
	// The key conjuncts are decided on the index entry, by the plan's
	// bounds and keyAdmits, so only a conjunct on another column can
	// reject a row that was read. A secondary-equality plan, whose RIDs
	// no key conjunct has seen, always has one: its own equality.
	residual := hasResidual(conj, key)
	sc := rowScratchPool.Get().(*rowScratch)
	defer rowScratchPool.Put(sc)
	emit := func(rid storage.RID, row catalog.Row, rec []byte) (cont bool, err error) {
		if residual {
			ok, err := matchesBound(row, conj)
			if err != nil {
				return false, err
			}
			if !ok {
				if ex != nil && ex.narrow {
					ex.extra = append(ex.extra, uint64(row[key].Int))
				}
				return true, nil
			}
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
	if (p.kind != planSecondaryEq && (p.kind != planFullScan || spec.dir != 0)) && keyOnly(t.schema, need) {
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
		if found && filter {
			var err error
			if found, err = keyAdmits(p.eq, conj, key); err != nil {
				t.idxMu.RUnlock()
				return err
			}
		}
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
	}

	// planPKRange, or a full-scan plan walked in key order or counted
	// for the narrow charge. The walk follows the primary index within
	// the plan's bounds, in spec.dir's direction, and hands on only the
	// entries keyAdmits lets through.
	var lop, hip *int64
	if p.hasLo {
		lop = &p.lo
	}
	if p.hasHi {
		hip = &p.hi
	}
	var walkErr error
	walk := func(visit func(key int64, rid storage.RID) bool) {
		step := visit
		if filter {
			step = func(k int64, rid storage.RID) bool {
				ok, err := keyAdmits(k, conj, key)
				if err != nil {
					walkErr = err
					return false
				}
				return !ok || visit(k, rid)
			}
		}
		if spec.dir < 0 {
			t.pk.DescendRange(lop, hip, step)
		} else {
			t.pk.AscendRange(lop, hip, step)
		}
	}
	// The B+tree traversal itself needs the index lock, and a commit
	// waits for every reader holding it. A range narrow enough that its
	// entries fit heldRangeKeys is walked under the lock into a list of
	// RIDs and read after the lock drops, against a snapshot registered
	// under it, as the secondary path reads its RIDs: the commit then
	// waits for the walk, not for the rows' reads and what fn does with
	// them. So is a candidate set the narrow charge counts, up to one
	// past its bound: a narrow one is read from its list, a wide one as
	// if nobody had counted. A wider range, and a key-ordered walk past
	// heldRangeKeys, holds the lock to the end, so a LIMIT still stops it
	// early. A key-only traversal reads no page and registers no
	// snapshot.
	bounded := p.kind == planPKRange && p.hasLo && p.hasHi && p.hi >= p.lo && uint64(p.hi)-uint64(p.lo) < heldRangeKeys
	if keyRow == nil && (bounded || ex != nil) {
		most := heldRangeKeys + 1 // more than a bounded range holds
		switch {
		case !bounded:
			most = ex.bound + 1
		case spec.take > 0:
			most = spec.take
		}
		snap := t.pool.BeginSnapshot()
		rids := sc.rids[:0]
		walk(func(_ int64, rid storage.RID) bool {
			rids = append(rids, rid)
			return len(rids) < most
		})
		sc.rids = rids
		if ex != nil {
			// take is never set with ex (runSelect), so a walk that stopped
			// short of most saw every candidate.
			ex.narrow = walkErr == nil && len(rids) < most && len(rids) <= ex.bound
		}
		if walkErr != nil || bounded || ex.narrow {
			t.idxMu.RUnlock()
			defer t.pool.EndSnapshot(snap)
			if walkErr != nil {
				return walkErr
			}
			if p.kind == planFullScan && spec.dir == 0 {
				// In page order, as the heap scan would have read them.
				slices.SortFunc(rids, func(a, b storage.RID) int {
					if c := cmp.Compare(a.Page, b.Page); c != 0 {
						return c
					}
					return cmp.Compare(a.Slot, b.Slot)
				})
			}
			return emitRIDs(rids, snap)
		}
		t.pool.EndSnapshot(snap)
		if p.kind == planFullScan && spec.dir == 0 {
			t.idxMu.RUnlock()
			if spec.fullScan != nil {
				return spec.fullScan()
			}
			return db.fullScan(t, conj, decode, fn)
		}
	}
	defer t.idxMu.RUnlock()
	var snap uint64
	if keyRow == nil {
		snap = t.pool.BeginSnapshot()
		defer t.pool.EndSnapshot(snap)
	}
	var scanErr error
	walk(func(key int64, rid storage.RID) bool {
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
	if walkErr != nil {
		return walkErr
	}
	return scanErr
}

// matchesBound evaluates resolved conjuncts against a row. The heap
// scan, the secondary-equality path, a primary-key path whose statement
// has a conjunct on another column, and lockRow decide a row's match
// here; a primary-key path decides the key's conjuncts on the index
// entry instead (planAndScanBound). The loop is by index and the
// comparison takes the cell and the literal by address: a boundConj is
// eight words, a cell and a literal five each, and copying them per
// conjunct per row showed on scans.
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
		if holds, known := opHolds(c.op, cmp); !holds {
			if !known {
				return false, errOperator(c.op)
			}
			return false, nil
		}
	}
	return true, nil
}

// opHolds reports whether a comparison whose sides compared as cmp
// satisfies op; known is false for an operator it does not know.
func opHolds(op sqlmini.CmpOp, cmp int) (holds, known bool) {
	switch op {
	case sqlmini.OpEq:
		return cmp == 0, true
	case sqlmini.OpNe:
		return cmp != 0, true
	case sqlmini.OpLt:
		return cmp < 0, true
	case sqlmini.OpLe:
		return cmp <= 0, true
	case sqlmini.OpGt:
		return cmp > 0, true
	case sqlmini.OpGe:
		return cmp >= 0, true
	}
	return false, false
}

// errOperator is the error for a conjunct whose operator opHolds does
// not know.
func errOperator(op sqlmini.CmpOp) error { return fmt.Errorf("engine: invalid operator %v", op) }

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
