// Prepared-statement cache: the SQL front end's answer to the profile
// that showed parse+plan dominating the point-query hot path. A SELECT
// is normalized to a parameterized key (literals → '?', case and
// whitespace canonicalized; see sqlmini.Normalize), and the cache maps
// that key to the selPlan its first execution ran from. There is one
// planner, planSelect: a miss parses, plans and runs the statement, then
// keeps that plan; a hit skips the lexer, the parser and all name
// resolution, binds its literal parameters into the plan's conjuncts
// and runs it through the same runSelect.
//
// Correctness rules:
//
//   - Plans are stamped with the schema epoch read before their table
//     was looked up. Every DDL (CREATE/DROP TABLE, CREATE/DROP INDEX)
//     bumps the epoch inside its exclusive section and purges the cache,
//     and both paths re-check the stamp under the table read lock: a
//     plan whose epoch moved runs but is not kept, and a cached plan is
//     never served across a schema change.
//   - Anything value-dependent is re-derived per execution: predicate
//     contradiction, access-path choice, and secondary-index probes all
//     happen at bind time via choosePlanBound.
//   - A plan is kept only when conjunct i's literal is parameter i and
//     the LIMIT literal is the last (selPlan.cacheable). An aggregate
//     that names a column is run but not kept: its label spells the
//     column as the statement does, which the key folds.
//   - Any abnormality at bind time (table gone, stale epoch, a parameter
//     the parser would have rejected) falls back to the parse path,
//     which reproduces the exact uncached behavior, including error text
//     and timing. Semantic errors (unknown table/column) are never
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
// writes, and evicts the tuples a DELETE removed from its trackers).
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

// planCache maps normalized SQL keys to plans. Reads are
// lock-free: the map is copy-on-write behind an atomic pointer, so the
// hot path is one atomic load and one map probe. Writes (store, purge)
// serialize on mu and are rare once the workload's shapes have warmed.
type planCache struct {
	cap           int
	mu            sync.Mutex
	m             atomic.Pointer[map[string]*selPlan]
	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

func newPlanCache(capEntries int) *planCache {
	pc := &planCache{cap: capEntries}
	m := make(map[string]*selPlan)
	pc.m.Store(&m)
	return pc
}

// lookup returns the plan for key if it exists and is current. A stale
// plan (stored by an execution that raced a DDL's purge) counts as an
// invalidation and is dropped. Hits and misses are counted where the
// statement runs: a hit is an execution that skipped the parser.
func (pc *planCache) lookup(key []byte, epoch uint64) *selPlan {
	e, ok := (*pc.m.Load())[string(key)]
	if !ok {
		return nil
	}
	if e.epoch != epoch {
		pc.remove(string(key), e)
		return nil
	}
	return e
}

// store publishes a plan under key unless a current one is already
// there. At capacity, new shapes simply don't cache (DESIGN §13): an
// adversarial flood of distinct shapes must not evict the legitimate
// workload's warm plans, and the delay defense already prices the
// flood itself. Entries stamped older than the incoming one are stale
// survivors of a racing purge and are dropped during the copy; newer
// ones are kept — a store that raced a DDL must not wipe the freshly
// refilled cache (lookup would reject the stale insert anyway).
func (pc *planCache) store(key []byte, e *selPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	old := *pc.m.Load()
	if prev, ok := old[string(key)]; ok && prev.epoch >= e.epoch {
		return
	}
	next := make(map[string]*selPlan, len(old)+1)
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
func (pc *planCache) remove(key string, stale *selPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	old := *pc.m.Load()
	if old[key] != stale {
		return // already replaced or purged
	}
	next := make(map[string]*selPlan, len(old))
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
	next := make(map[string]*selPlan)
	pc.m.Store(&next)
}

func (pc *planCache) stats() (hits, misses, invalidations int64, entries int) {
	return pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load(), len(*pc.m.Load())
}

// Prepared is one statement readied for execution. Instances are pooled
// and carry the normalization and binding scratch across uses; callers
// must Release exactly once when done with the result of Prepare.
type Prepared struct {
	db   *Database
	kind StmtKind
	sql  string
	stmt sqlmini.Statement // the parse path's statement
	plan *selPlan          // a hit's cached plan, which params bind into

	key    []byte            // a SELECT's normalized key, alias into norm
	params []sqlmini.Literal // its normalized literals, alias into norm
	norm   sqlmini.NormScratch
	conj   []boundConj
	w      rowWriter // every SELECT's, its scratch kept from use to use
}

var preparedPool = sync.Pool{New: func() any { return new(Prepared) }}

// Prepare readies one SQL statement for execution. A SELECT whose shape
// the plan cache holds skips the parser; everything else parses, and a
// SELECT's first execution offers the cache the plan it ran from. Only
// lexical errors surface here — semantic errors (unknown table or
// column) surface at Exec, exactly as the one-shot path reports them.
func (db *Database) Prepare(sql string) (*Prepared, error) {
	p := preparedPool.Get().(*Prepared)
	p.db, p.sql = db, sql
	p.stmt, p.plan, p.key, p.params = nil, nil, nil, nil
	if sqlmini.HasPrefixKeyword(sql, "SELECT") {
		key, params, err := sqlmini.Normalize(sql, &p.norm)
		if err != nil {
			// Lexical error: Parse would fail identically (same lexer).
			p.Release()
			return nil, err
		}
		p.key, p.params = key, params
		if pl := db.planCache.lookup(key, db.schemaEpoch.Load()); pl != nil {
			p.plan, p.kind = pl, KindSelect
			return p, nil
		}
	}
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		p.Release()
		return nil, err
	}
	p.stmt, p.kind = stmt, classify(stmt)
	return p, nil
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

// ExamineUpTo turns on the narrow charge for the statement's
// executions: a SELECT whose candidate set — the primary-index entries
// its key conjuncts and partition set admit — holds at most t entries
// is charged every candidate it read, returned or not (Examined).
func (p *Prepared) ExamineUpTo(t int) { p.w.narrow = t }

// Examined is what the last execution is charged for when that is not
// its Result.Keys: a narrow SELECT's Keys, then the keys of the
// candidates it read and did not return — rows a conjunct on another
// column rejected, rows sorted past its LIMIT. It is nil when the
// statement read nothing it did not return, or its candidate set was
// wide, and valid until the next execution or Release.
func (p *Prepared) Examined() []uint64 { return p.w.examined }

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
	p.w.enc, p.w.body, p.w.rows, p.w.examined = enc, body, 0, nil
	res, err := p.exec(parts)
	if err == nil {
		res.Body, res.BodyRows = p.w.body, p.w.rows
	}
	// Let go of the reply: the Prepared outlives it in the pool.
	p.w.enc, p.w.body, p.w.vals = nil, nil, nil
	return res, err
}

func (p *Prepared) exec(parts *PartitionSet) (*Result, error) {
	pc := p.db.planCache
	if p.plan != nil {
		if res, ok, err := p.execPlan(parts); ok {
			pc.hits.Add(1)
			return res, err
		}
		// The plan no longer binds (a DDL raced, or a parameter the
		// parser rejects): the parse path reproduces the uncached
		// behavior, error text included.
		stmt, err := sqlmini.Parse(p.sql)
		if err != nil {
			return nil, err
		}
		p.stmt, p.kind, p.plan = stmt, classify(stmt), nil
	}
	sel, ok := p.stmt.(*sqlmini.Select)
	if !ok || p.key == nil {
		return p.db.execStmt(p.stmt, parts, &p.w)
	}
	pc.misses.Add(1)
	res, pl, err := p.db.execSelect(sel, parts, &p.w)
	if pl != nil && pl.cacheable(sel, p.params) {
		pc.store(p.key, pl)
	}
	return res, err
}

// execPlan binds p's parameters into its cached plan and runs it:
// conjunct i takes parameter i, the LIMIT the last. ok=false means the
// plan no longer binds and the caller must take the parse path.
func (p *Prepared) execPlan(parts *PartitionSet) (res *Result, ok bool, err error) {
	pl := p.plan
	n := len(pl.conj)
	if pl.hasLimit {
		n++
	}
	if len(p.params) != n {
		return nil, false, nil
	}
	limit := -1
	if pl.hasLimit {
		lp := p.params[n-1]
		if lp.Kind != sqlmini.IntLit || lp.Int < 0 {
			return nil, false, nil // the parser rejects this LIMIT; let it
		}
		limit = int(lp.Int)
	}
	t, terr := p.db.getTable(pl.table)
	if terr != nil {
		return nil, false, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	// DDL holds the lock just taken shared, so this read is ordered
	// against every bump: a stale plan cannot slip through.
	if p.db.schemaEpoch.Load() != pl.epoch {
		return nil, false, nil
	}
	conj := p.conj[:0]
	for i, c := range pl.conj {
		c.val = p.params[i]
		conj = append(conj, c)
	}
	if parts != nil {
		// A plan's decode mask always covers the key.
		conj = append(conj, boundConj{col: t.schema.Key, part: parts})
	}
	p.conj = conj
	res, err = p.db.runSelect(t, pl, conj, limit, &p.w)
	return res, true, err
}

// Release returns p to the pool. The Prepared must not be used after;
// Results it produced remain valid.
func (p *Prepared) Release() {
	if p == nil {
		return
	}
	p.db = nil
	p.w.narrow, p.w.examined = 0, nil
	p.kind = KindOther
	p.sql = ""
	p.stmt, p.plan, p.key, p.params = nil, nil, nil, nil
	preparedPool.Put(p)
}
