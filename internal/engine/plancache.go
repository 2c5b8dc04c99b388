// Prepared-statement cache: the SQL front end's answer to the profile
// that showed parse+plan dominating the point-query hot path. A SELECT
// is normalized to a parameterized key (literals → '?', case and
// whitespace canonicalized; see sqlmini.Normalize), and the cache maps
// that key to a plan template — conjunct columns and operators resolved
// against the schema, projection and decode mask precomputed. A hit
// skips the lexer, the parser, and all name resolution: execution just
// rebinds the literal parameters into the template and runs the shared
// SELECT executor.
//
// Correctness rules:
//
//   - Entries are stamped with the schema epoch they were built under.
//     Every DDL (CREATE/DROP TABLE, CREATE/DROP INDEX) bumps the epoch
//     inside its exclusive section and purges the cache, and execution
//     re-checks the stamp under the table read lock, so a cached plan is
//     never served across a schema change.
//   - Anything value-dependent is re-derived per execution: predicate
//     contradiction, access-path choice, and secondary-index probes all
//     happen at bind time via choosePlanBound.
//   - Any abnormality at bind or execution time (table gone, stale
//     epoch, parameter shape the parser would have rejected) falls back
//     to the full parse path, which reproduces the exact uncached
//     behavior, including error text and timing.
//   - Statement shapes the template cannot express (EXPLAIN,
//     aggregates, ORDER BY) are remembered as uncacheable so repeats
//     skip the template-build attempt but still parse and execute
//     normally. Semantic errors (unknown table/column) are never
//     cached; they surface at Exec through the parse path, preserving
//     the error-timing behavior the shield's failure accounting relies
//     on.
package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/sqlmini"
)

// StmtKind classifies a prepared statement for callers that dispatch on
// statement type before executing (the shield blocks EXPLAIN, gates
// writes, and tombstones DELETEs).
type StmtKind int

const (
	KindOther StmtKind = iota
	KindSelect
	KindExplain
	KindDelete
)

func classify(stmt sqlmini.Statement) StmtKind {
	switch s := stmt.(type) {
	case *sqlmini.Select:
		if s.Explain {
			return KindExplain
		}
		return KindSelect
	case *sqlmini.Delete:
		return KindDelete
	default:
		return KindOther
	}
}

// conjTemplate is one WHERE conjunct with its literal stripped: the
// column is resolved, the operator fixed, and the value supplied at
// bind time from the normalized parameter list (conjunct i binds
// parameter i — the parser emits conjuncts in token order, which is the
// order Normalize collects literals in).
type conjTemplate struct {
	col int
	op  sqlmini.CmpOp
}

// planEntry is a cached plan template for one normalized SELECT shape.
// Entries are immutable after publication; slices are shared with every
// execution that binds them.
type planEntry struct {
	epoch       uint64
	table       string
	uncacheable bool // shape the template can't express; parse instead
	nparams     int
	conj        []conjTemplate
	hasLimit    bool // last parameter is the LIMIT literal
	proj        []int
	cols        []string
	need        []bool
	lean        []bool // need without the projection; see selSpec
}

// planCache maps normalized SQL keys to plan entries. Reads are
// lock-free: the map is copy-on-write behind an atomic pointer, so the
// hot path is one atomic load and one map probe. Writes (store, purge)
// serialize on mu and are rare once the workload's shapes have warmed.
type planCache struct {
	cap           int
	mu            sync.Mutex
	m             atomic.Pointer[map[string]*planEntry]
	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

func newPlanCache(capEntries int) *planCache {
	pc := &planCache{cap: capEntries}
	m := make(map[string]*planEntry)
	pc.m.Store(&m)
	return pc
}

// lookup returns the entry for key if it exists and is current. A stale
// entry (stored by a build that raced a DDL's purge) counts as an
// invalidation and is dropped.
func (pc *planCache) lookup(key []byte, epoch uint64) *planEntry {
	m := *pc.m.Load()
	e, ok := m[string(key)]
	if !ok {
		pc.misses.Add(1)
		return nil
	}
	if e.epoch != epoch {
		pc.remove(string(key), e)
		pc.misses.Add(1)
		return nil
	}
	pc.hits.Add(1)
	return e
}

// store publishes an entry under key unless a current one is already
// there. At capacity, new shapes simply don't cache (DESIGN §13): an
// adversarial flood of distinct shapes must not evict the legitimate
// workload's warm templates, and the delay defense already prices the
// flood itself. Entries stamped older than the incoming one are stale
// survivors of a racing purge and are dropped during the copy; newer
// ones are kept — a store that raced a DDL must not wipe the freshly
// rebuilt cache (lookup would reject the stale insert anyway).
func (pc *planCache) store(key []byte, e *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	old := *pc.m.Load()
	if prev, ok := old[string(key)]; ok && prev.epoch >= e.epoch {
		return
	}
	next := make(map[string]*planEntry, len(old)+1)
	for k, v := range old {
		if v.epoch < e.epoch {
			continue // stale survivors of a racing purge: drop
		}
		next[k] = v
	}
	if _, replacing := next[string(key)]; !replacing && len(next) >= pc.cap {
		if len(next) != len(old) {
			pc.m.Store(&next) // still publish the stale-entry cleanup
		}
		return
	}
	next[string(key)] = e
	pc.m.Store(&next)
}

// remove drops a stale entry observed by lookup.
func (pc *planCache) remove(key string, stale *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	old := *pc.m.Load()
	if old[key] != stale {
		return // already replaced or purged
	}
	next := make(map[string]*planEntry, len(old))
	for k, v := range old {
		if k != key {
			next[k] = v
		}
	}
	pc.m.Store(&next)
	pc.invalidations.Add(1)
}

// purge drops every entry (DDL invalidation).
func (pc *planCache) purge() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	old := *pc.m.Load()
	if n := len(old); n > 0 {
		pc.invalidations.Add(int64(n))
	}
	next := make(map[string]*planEntry)
	pc.m.Store(&next)
}

func (pc *planCache) stats() (hits, misses, invalidations int64, entries int) {
	return pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load(), len(*pc.m.Load())
}

// Prepared is one statement readied for execution. Instances are pooled
// and carry the normalization and binding scratch across uses; callers
// must Release exactly once when done with the result of Prepare.
type Prepared struct {
	db    *Database
	kind  StmtKind
	sql   string
	stmt  sqlmini.Statement // parse-path statement (miss or uncacheable)
	entry *planEntry        // cached template (hit path)

	params []sqlmini.Literal // normalized literals, alias into norm
	norm   sqlmini.NormScratch
	conj   []boundConj
	spec   selSpec
	w      rowWriter // every SELECT's, its scratch kept from use to use
}

var preparedPool = sync.Pool{New: func() any { return new(Prepared) }}

// Prepare readies one SQL statement for execution. Cacheable SELECT
// shapes are served from (and on miss, added to) the plan cache;
// everything else parses. Only lexical errors surface here — semantic
// errors (unknown table or column) surface at Exec, exactly as the
// one-shot path reports them.
func (db *Database) Prepare(sql string) (*Prepared, error) {
	p := preparedPool.Get().(*Prepared)
	p.db = db
	p.sql = sql
	p.stmt = nil
	p.entry = nil
	p.params = nil

	if !sqlmini.HasPrefixKeyword(sql, "SELECT") {
		return p.prepareParsed()
	}
	key, params, err := sqlmini.Normalize(sql, &p.norm)
	if err != nil {
		// Lexical error: Parse would fail identically (same lexer).
		p.Release()
		return nil, err
	}
	epoch := db.schemaEpoch.Load()
	if e := db.planCache.lookup(key, epoch); e != nil {
		if e.uncacheable {
			return p.prepareParsed()
		}
		p.entry = e
		p.params = params
		p.kind = KindSelect
		return p, nil
	}
	// Miss: parse, then try to publish a template for the next time.
	// This execution runs from the parsed statement either way.
	if _, err := p.prepareParsed(); err != nil {
		return nil, err
	}
	if sel, ok := p.stmt.(*sqlmini.Select); ok {
		// Skip the store when a DDL has already moved the epoch on: the
		// entry would be dead on arrival (lookup rejects stale stamps),
		// and uncacheable markers bypass buildPlanEntry's own under-lock
		// epoch re-check.
		if e := db.buildPlanEntry(sel, params, epoch); e != nil && db.schemaEpoch.Load() == epoch {
			db.planCache.store(key, e)
		}
	}
	return p, nil
}

// prepareParsed fills p through the parser.
func (p *Prepared) prepareParsed() (*Prepared, error) {
	stmt, err := sqlmini.Parse(p.sql)
	if err != nil {
		p.Release()
		return nil, err
	}
	p.stmt = stmt
	p.kind = classify(stmt)
	return p, nil
}

// buildPlanEntry resolves sel into a plan template, or an uncacheable
// marker for shapes the template cannot express. It returns nil when
// nothing should be cached (semantic errors, or a parameter layout that
// does not line up with the normalized literal list).
func (db *Database) buildPlanEntry(sel *sqlmini.Select, params []sqlmini.Literal, epoch uint64) *planEntry {
	if sel.Explain || len(sel.Aggregates) > 0 || sel.Order != nil {
		return &planEntry{epoch: epoch, uncacheable: true}
	}
	t, err := db.getTable(sel.Table)
	if err != nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Re-read the epoch under the lock: if a DDL slipped between the
	// caller's read and here, the entry must carry the newer stamp or
	// not exist at all. Stamping with the caller's (older) epoch is also
	// safe — lookup would reject it — but building against a schema we
	// hold the read lock on deserves the matching stamp.
	if db.schemaEpoch.Load() != epoch {
		return nil
	}
	var conj []conjTemplate
	if sel.Where != nil {
		conj = make([]conjTemplate, 0, len(sel.Where.Conjuncts))
		for _, c := range sel.Where.Conjuncts {
			ci := t.schema.ColumnIndex(c.Column)
			if ci < 0 {
				return nil // semantic error: never cached
			}
			conj = append(conj, conjTemplate{col: ci, op: c.Op})
		}
	}
	hasLimit := sel.Limit != -1
	nparams := len(conj)
	if hasLimit {
		nparams++
	}
	// Self-check the conjunct-i ↔ parameter-i correspondence against the
	// literals the parser actually bound. Any mismatch means the
	// normalizer and parser disagree about this statement; do not cache.
	if nparams != len(params) {
		return nil
	}
	if sel.Where != nil {
		for i, c := range sel.Where.Conjuncts {
			if params[i] != c.Value {
				return nil
			}
		}
	}
	if hasLimit {
		want := sqlmini.Literal{Kind: sqlmini.IntLit, Int: int64(sel.Limit)}
		if params[len(params)-1] != want {
			return nil
		}
	}
	proj, err := projection(t.schema, sel.Columns)
	if err != nil {
		return nil
	}
	bound := make([]boundConj, len(conj))
	for i, ct := range conj {
		bound[i] = boundConj{col: ct.col, op: ct.op}
	}
	return &planEntry{
		epoch:    epoch,
		table:    sel.Table,
		nparams:  nparams,
		conj:     conj,
		hasLimit: hasLimit,
		proj:     proj,
		cols:     projColumns(t.schema, proj),
		need:     needMask(t.schema, proj, bound, -1),
		lean:     needMask(t.schema, nil, bound, -1),
	}
}

// Kind reports the statement's classification. Valid until Release.
func (p *Prepared) Kind() StmtKind { return p.kind }

// Exec runs the prepared statement, a SELECT's rows kept as values in
// Result.Rows. It may be called more than once before Release; cached
// executions rebind the parameters each time.
func (p *Prepared) Exec() (*Result, error) { return p.ExecInto(nil, nil, nil) }

// ExecIn is Exec restricted to the rows of parts (nil: every row), on
// the cached-plan path and the parse path alike; see ExecStmt.
func (p *Prepared) ExecIn(parts *PartitionSet) (*Result, error) { return p.ExecInto(parts, nil, nil) }

// ExecInto is ExecIn with a SELECT's reply written through enc, row by
// row as the scan reads it, onto body: a TEXT cell goes from its page to
// the body without being copied out as a string, and no row is held as
// values. The Result's Body is body with the reply appended — body alone
// for a statement that is not a SELECT — and its Rows is nil; Keys is as
// ExecIn's. A failed statement may have appended to body's array. A nil
// enc keeps the rows as values in Result.Rows instead, which is all Exec
// and ExecIn are: every SELECT runs one path, which hands each row to
// p's rowWriter.
func (p *Prepared) ExecInto(parts *PartitionSet, enc RowEncoder, body []byte) (*Result, error) {
	p.w.enc, p.w.body, p.w.rows = enc, body, 0
	res, err := p.exec(parts)
	if err == nil {
		res.Body, res.BodyRows = p.w.body, p.w.rows
	}
	// Let go of the reply: the Prepared outlives it in the pool.
	p.w.enc, p.w.body, p.w.vals = nil, nil, nil
	return res, err
}

func (p *Prepared) exec(parts *PartitionSet) (*Result, error) {
	if p.entry != nil {
		res, ok, err := p.db.execCachedSelect(p, parts)
		if ok {
			return res, err
		}
		// The cached template no longer applies (DDL raced, or a
		// parameter the parser would reject): take the parse path, which
		// reproduces exact uncached behavior.
		if _, err := p.prepareParsedKeep(); err != nil {
			return nil, err
		}
	}
	return p.db.execStmt(p.stmt, parts, &p.w)
}

// prepareParsedKeep is prepareParsed without the Release-on-error (Exec
// callers still own p and must Release it themselves).
func (p *Prepared) prepareParsedKeep() (*Prepared, error) {
	stmt, err := sqlmini.Parse(p.sql)
	if err != nil {
		return nil, err
	}
	p.stmt = stmt
	p.kind = classify(stmt)
	p.entry = nil
	return p, nil
}

// execCachedSelect binds p's parameters into its cached template and
// runs it. ok=false means the caller must fall back to the parse path.
func (db *Database) execCachedSelect(p *Prepared, parts *PartitionSet) (res *Result, ok bool, err error) {
	e := p.entry
	if len(p.params) != e.nparams {
		return nil, false, nil
	}
	t, terr := db.getTable(e.table)
	if terr != nil {
		return nil, false, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	// DDL holds the locks we just took shared, so this read is ordered
	// against every bump: a stale template cannot slip through.
	if db.schemaEpoch.Load() != e.epoch {
		return nil, false, nil
	}
	conj := p.conj[:0]
	for i, ct := range e.conj {
		conj = append(conj, boundConj{col: ct.col, op: ct.op, val: p.params[i]})
	}
	if parts != nil {
		// The template's decode mask always covers the key.
		conj = append(conj, boundConj{col: t.schema.Key, part: parts})
	}
	p.conj = conj
	limit := -1
	if e.hasLimit {
		lp := p.params[len(p.params)-1]
		if lp.Kind != sqlmini.IntLit || lp.Int < 0 {
			return nil, false, nil // parser rejects this LIMIT; let it
		}
		limit = int(lp.Int)
	}
	p.spec = selSpec{
		conj:     conj,
		proj:     e.proj,
		cols:     e.cols,
		need:     e.need,
		lean:     e.lean,
		orderCol: -1,
		limit:    limit,
	}
	res, err = db.execSelectSpec(t, &p.spec, &p.w)
	return res, true, err
}

// Release returns p to the pool. The Prepared must not be used after;
// Results it produced remain valid.
func (p *Prepared) Release() {
	if p == nil {
		return
	}
	p.db = nil
	p.kind = KindOther
	p.sql = ""
	p.stmt = nil
	p.entry = nil
	p.params = nil
	p.spec = selSpec{}
	preparedPool.Put(p)
}
