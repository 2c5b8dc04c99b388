// Package engine is the embedded relational database the delay defense
// wraps: heap files behind an LRU buffer pool, a B+tree per table on the
// INT primary key, and an executor for the sqlmini statement set. It
// stands in for the "commercial relational database" of the paper's
// evaluation so that the Table 5 overhead experiment measures a real
// disk-backed query path.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// DefaultPoolPages is the per-table buffer pool capacity when none is
// configured.
const DefaultPoolPages = 256

// DefaultPlanCacheEntries is the prepared-statement cache capacity. The
// cache keys on normalized SQL text, so the working set is the number of
// distinct query shapes, not distinct queries; 1024 shapes covers any
// workload this engine serves.
const DefaultPlanCacheEntries = 1024

// Option configures a Database.
type Option func(*Database)

// WithPoolPages sets the per-table buffer pool capacity in pages.
func WithPoolPages(n int) Option {
	return func(db *Database) { db.poolPages = n }
}

// WithWAL enables per-statement write-ahead logging: every mutating
// statement appends the pages it dirtied plus a commit record to
// <table>.wal before returning, and recovery replays committed batches
// at open. synced additionally fsyncs the log on every commit (durable
// against power loss, not just process crash).
func WithWAL(synced bool) Option {
	return func(db *Database) {
		db.useWAL = true
		db.walSynced = synced
	}
}

// walCheckpointBytes is the log size past which a mutation triggers a
// checkpoint (flush data pages, sync, truncate the log).
const walCheckpointBytes = 8 << 20

// Database is an embedded relational database rooted at a directory: one
// page file per table plus a JSON catalog. It is safe for concurrent use;
// statements execute atomically with respect to each other per table.
type Database struct {
	dir       string
	cat       *catalog.Catalog
	poolPages int
	// scanWorkers is the most goroutines a full-heap read fans out
	// across: GOMAXPROCS at Open (see scanWorkersFor).
	scanWorkers int
	useWAL      bool
	walSynced   bool

	// cpFailures/cpErr record post-commit checkpoint failures; see
	// noteCheckpointErr.
	cpFailures atomic.Int64
	cpErr      atomic.Pointer[error]

	// schemaEpoch counts DDL statements (table and index create/drop).
	// Cached plans are stamped with the epoch they were built under and
	// are only executed while it still matches; every DDL bumps the
	// epoch inside its exclusive section and purges the plan cache.
	schemaEpoch atomic.Uint64
	planCache   *planCache

	mu     sync.RWMutex
	tables map[string]*table
	closed bool
}

// table couples one heap file with its indexes.
//
// mu is the table lifecycle lock. Every statement — reads AND writes —
// holds it shared; the exclusive takers are the operations that need the
// table quiescent: index DDL, checkpoints, Flush/DropCaches and
// Close/DropTable. Writers therefore never block readers at table
// granularity; their mutual isolation comes from per-page write latches
// (storage.WriteSet) plus the structures below. There is one way to
// change a heap page — a write set committed by commitWrite — so no page
// of any table reaches the data file before its image reaches the log.
//
// idxMu guards the primary key B+tree and the secondary indexes. Commits
// apply index changes under idxMu exclusive immediately after publishing
// their page versions, so a reader that captures (index state, snapshot
// epoch) under idxMu shared always gets a mutually consistent pair.
//
// keyMu/inflight is the key-claim map: an INSERT, and an UPDATE that
// changes a key, claims the keys it gives rows before probing the index
// (writeTx.claimFresh), converting a racing duplicate into a clean
// duplicate-key error for exactly one of the two statements.
type table struct {
	mu     sync.RWMutex
	schema catalog.Schema
	pager  *storage.Pager
	pool   *storage.Pool
	heap   *storage.HeapFile
	pk     *index.BTree[int64, storage.RID]
	wal    *storage.WAL // nil unless WithWAL
	// secondaries parallel schema.Indexes, same order.
	secondaries []*secondary

	idxMu    sync.RWMutex
	keyMu    sync.Mutex
	inflight map[int64]struct{}
}

// claimKeys atomically claims every key for an in-flight write, or
// claims none and reports the first key already claimed by a concurrent
// statement.
func (t *table) claimKeys(keys []int64) (int64, bool) {
	t.keyMu.Lock()
	defer t.keyMu.Unlock()
	if t.inflight == nil {
		t.inflight = make(map[int64]struct{})
	}
	for i, k := range keys {
		if _, busy := t.inflight[k]; busy {
			for _, u := range keys[:i] {
				delete(t.inflight, u)
			}
			return k, false
		}
		t.inflight[k] = struct{}{}
	}
	return 0, true
}

func (t *table) releaseKeys(keys []int64) {
	if len(keys) == 0 {
		return // most UPDATEs and every DELETE claim nothing
	}
	t.keyMu.Lock()
	for _, k := range keys {
		delete(t.inflight, k)
	}
	t.keyMu.Unlock()
}

// commitWrite is the commit point of every mutating statement: it logs
// the write set's page images, then — under the index lock — publishes
// the page versions and applies the index changes, so snapshot readers
// observe the whole statement or none of it. On a WAL error nothing
// publishes: the caller releases the write set and the statement has
// rolled back. It reports whether the log has grown past the checkpoint
// threshold; the caller runs t.checkpoint() after dropping its table
// read lock.
func (t *table) commitWrite(ws *storage.WriteSet, apply func()) (checkpoint bool, err error) {
	if t.wal != nil {
		if err := t.wal.AppendBatch(ws.Images()); err != nil {
			return false, err
		}
	}
	t.idxMu.Lock()
	ws.Publish()
	apply()
	t.idxMu.Unlock()
	return t.wal != nil && t.wal.Size() >= walCheckpointBytes, nil
}

// scanRows calls fn with every row of t's heap, fully decoded, in page
// order. Index builds use it: a caller that holds t.mu exclusively (or
// owns a table not yet published) sees every row.
func (db *Database) scanRows(t *table, fn func(row catalog.Row, rid storage.RID)) error {
	return db.fullScan(t, nil, nil, func(rid storage.RID, row catalog.Row, _ []byte) (bool, error) {
		fn(row, rid)
		return true, nil
	})
}

// checkpoint flushes data pages and truncates the log once it outgrows
// the threshold. It takes the table lock exclusively — no statement may
// be in flight — and rechecks the size, so concurrent committers that
// all observed the threshold run one checkpoint, not several. It first
// syncs the data file without the lock: the log fills over seconds, and
// the pages evictions wrote back in that time would otherwise all be
// synced inside the exclusive section.
func (t *table) checkpoint() error {
	if err := t.pager.Sync(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil || t.wal.Size() < walCheckpointBytes {
		return nil
	}
	if err := t.pool.FlushAll(); err != nil {
		return err
	}
	if err := t.pager.Sync(); err != nil {
		return err
	}
	return t.wal.Truncate()
}

// Open opens (creating if needed) the database in dir.
func Open(dir string, opts ...Option) (*Database, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: creating %s: %w", dir, err)
	}
	cat, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	db := &Database{
		dir:         dir,
		cat:         cat,
		poolPages:   DefaultPoolPages,
		scanWorkers: runtime.GOMAXPROCS(0),
		planCache:   newPlanCache(DefaultPlanCacheEntries),
		tables:      make(map[string]*table),
	}
	for _, opt := range opts {
		opt(db)
	}
	if db.poolPages < 1 {
		return nil, errors.New("engine: pool pages < 1")
	}
	for _, name := range cat.Tables() {
		schema, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		if schema.Layout != catalog.LayoutVerbatim {
			return nil, fmt.Errorf("engine: table %q predates the record layout stamp: its catalog.json entry has no \"layout\"", name)
		}
		if _, err := db.loadTable(schema); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (db *Database) tablePath(name string) string {
	return filepath.Join(db.dir, strings.ToLower(name)+".tbl")
}

// loadTable opens the table's page file and rebuilds its primary key
// index from the heap.
func (db *Database) loadTable(schema catalog.Schema) (*table, error) {
	pager, err := storage.OpenPager(db.tablePath(schema.Table))
	if err != nil {
		return nil, err
	}
	var wal *storage.WAL
	if db.useWAL {
		wal, err = storage.OpenWAL(db.tablePath(schema.Table)+".wal", db.walSynced)
		if err != nil {
			pager.Close()
			return nil, err
		}
		// Recover: reapply committed batches, then checkpoint so the log
		// starts empty.
		if _, err := wal.Replay(func(im storage.PageImage) error {
			return pager.WriteImage(im.ID, im.Image)
		}); err != nil {
			wal.Close()
			pager.Close()
			return nil, fmt.Errorf("engine: recovering %q: %w", schema.Table, err)
		}
		if err := pager.Sync(); err != nil {
			wal.Close()
			pager.Close()
			return nil, err
		}
		if err := wal.Truncate(); err != nil {
			wal.Close()
			pager.Close()
			return nil, err
		}
	}
	pool, err := storage.NewPool(pager, db.poolPages)
	if err != nil {
		pager.Close()
		return nil, err
	}
	heap, err := storage.NewHeapFile(pool)
	if err != nil {
		pager.Close()
		return nil, err
	}
	t := &table{
		schema: schema,
		pager:  pager,
		pool:   pool,
		heap:   heap,
		pk:     index.NewBTree[int64, storage.RID](),
		wal:    wal,
	}
	for _, def := range schema.Indexes {
		sec, serr := newSecondary(def, schema)
		if serr != nil {
			pager.Close()
			return nil, serr
		}
		t.secondaries = append(t.secondaries, sec)
	}
	if err := db.scanRows(t, func(row catalog.Row, rid storage.RID) {
		t.pk.Put(row[schema.Key].Int, rid)
		for _, sec := range t.secondaries {
			sec.insert(row, rid)
		}
	}); err != nil {
		pager.Close()
		return nil, fmt.Errorf("engine: rebuilding index for %q: %w", schema.Table, err)
	}
	db.mu.Lock()
	db.tables[strings.ToLower(schema.Table)] = t
	db.mu.Unlock()
	return t, nil
}

func (db *Database) getTable(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, errors.New("engine: database closed")
	}
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", name)
	}
	return t, nil
}

// HasTuple reports whether any table holds a row whose primary key is
// key — the existence check behind the admin quote endpoint's
// unknown-tuple validation. Tuple ids in delay accounting are the
// primary keys queries return, so a key unknown to every table can
// never have been priced.
func (db *Database) HasTuple(key uint64) bool {
	db.mu.RLock()
	tables := make([]*table, 0, len(db.tables))
	if !db.closed {
		for _, t := range db.tables {
			tables = append(tables, t)
		}
	}
	db.mu.RUnlock()
	for _, t := range tables {
		t.mu.RLock()
		t.idxMu.RLock()
		_, ok := t.pk.Get(int64(key))
		t.idxMu.RUnlock()
		t.mu.RUnlock()
		if ok {
			return true
		}
	}
	return false
}

// Tables returns the names of all tables.
func (db *Database) Tables() []string { return db.cat.Tables() }

// Schema returns the schema of the named table.
func (db *Database) Schema(name string) (catalog.Schema, error) { return db.cat.Get(name) }

// CreateTable registers a new table, stamped with the record layout
// every new table has (catalog.LayoutVerbatim) whatever schema.Layout says.
func (db *Database) CreateTable(schema catalog.Schema) error {
	schema.Layout = catalog.LayoutVerbatim
	if err := db.cat.Create(schema); err != nil {
		return err
	}
	// A table the catalog did not know owns no file: what is here was left
	// by a DropTable killed between its catalog commit and its removals.
	os.Remove(db.tablePath(schema.Table))
	os.Remove(db.tablePath(schema.Table) + ".wal")
	if _, err := db.loadTable(schema); err != nil {
		db.cat.Drop(schema.Table)
		return err
	}
	db.bumpSchemaEpoch()
	return nil
}

// DropTable removes a table and deletes its data file.
func (db *Database) DropTable(name string) error {
	t, err := db.getTable(name)
	if err != nil {
		return err
	}
	if err := db.cat.Drop(name); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.tables, strings.ToLower(name))
	db.mu.Unlock()
	db.bumpSchemaEpoch()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal != nil {
		if err := t.wal.Close(); err != nil {
			return err
		}
		if err := os.Remove(db.tablePath(name) + ".wal"); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("engine: removing table wal: %w", err)
		}
	}
	if err := t.pager.Close(); err != nil {
		return err
	}
	if err := os.Remove(db.tablePath(name)); err != nil {
		return fmt.Errorf("engine: removing table file: %w", err)
	}
	return nil
}

// flush writes the table's dirty pages to its data file and syncs it.
// The exclusive table lock excludes in-flight mutators (writers hold it
// shared for the whole statement) so no torn page image reaches disk.
func (t *table) flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.pool.FlushAll(); err != nil {
		return err
	}
	return t.pager.Sync()
}

// Flush writes all dirty pages of all tables to disk.
func (db *Database) Flush() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, t := range db.tables {
		if err := t.flush(); err != nil {
			return fmt.Errorf("engine: flushing %q: %w", name, err)
		}
	}
	return nil
}

// DropCaches flushes and empties every table's buffer pool, simulating a
// cold start for the Table 5 base-cost measurement.
func (db *Database) DropCaches() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, t := range db.tables {
		t.mu.Lock()
		err := t.pool.DropAll()
		t.mu.Unlock()
		if err != nil {
			return fmt.Errorf("engine: dropping caches of %q: %w", name, err)
		}
	}
	return nil
}

// PoolStats aggregates buffer pool statistics across tables.
func (db *Database) PoolStats() (hits, misses, evicts int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		h, m, e := t.pool.Stats()
		hits += h
		misses += m
		evicts += e
	}
	return hits, misses, evicts
}

// PageIO sums the physical page reads and writes of every open table's
// pager since it was opened (storage.Pager.Stats).
func (db *Database) PageIO() (reads, writes int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		r, w := t.pager.Stats()
		reads += r
		writes += w
	}
	return reads, writes
}

// PoolStreamed counts the heap pages statements read around the buffer
// pool (storage.Pool.ReadBatch), summed across tables: page reads, where
// PoolStats' hits and misses count row reads.
func (db *Database) PoolStreamed() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	for _, t := range db.tables {
		n += t.pool.Streamed()
	}
	return n
}

// WriteStats aggregates concurrent-write-path counters across tables:
// page write-latch acquisitions and contended waits, and snapshot page
// versions currently retained / retired in total — the
// engine_write_latch_* and engine_snapshot_* instruments.
func (db *Database) WriteStats() (latchAcq, latchWaits, versLive, versRetired int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		a, w, l, r := t.pool.WriteStats()
		latchAcq += a
		latchWaits += w
		versLive += l
		versRetired += r
	}
	return latchAcq, latchWaits, versLive, versRetired
}

// noteCheckpointErr records a checkpoint failure. A checkpoint runs
// after its triggering statement has committed, published, and become
// WAL-durable, so the failure must not be reported as the statement
// failing — the mutation's Result still reaches the caller, and the
// failure is surfaced here for health machinery (the shield latches
// degraded mode from TakeCheckpointErr after each write).
func (db *Database) noteCheckpointErr(err error) {
	if err == nil {
		return
	}
	db.cpFailures.Add(1)
	db.cpErr.Store(&err)
}

// CheckpointFailures counts post-commit checkpoint failures since open —
// the engine_checkpoint_failures_total instrument.
func (db *Database) CheckpointFailures() int64 { return db.cpFailures.Load() }

// TakeCheckpointErr returns and clears the most recent post-commit
// checkpoint failure, or nil. The statement that triggered the failed
// checkpoint succeeded; callers use the error only to judge storage
// health (errors.Is(err, storage.ErrIO)), never to fail a request.
func (db *Database) TakeCheckpointErr() error {
	if p := db.cpErr.Swap(nil); p != nil {
		return *p
	}
	return nil
}

// WALGroupStats aggregates group-commit pipeline counters across table
// WALs: committed batches, page records, fsyncs issued, and leader time
// spent in the accumulation window — the wal_group_* instruments.
func (db *Database) WALGroupStats() (commits, records, fsyncs int64, windowWaitSeconds float64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		if t.wal == nil {
			continue
		}
		c, r, f, w := t.wal.GroupStats()
		commits += c
		records += r
		fsyncs += f
		windowWaitSeconds += w.Seconds()
	}
	return commits, records, fsyncs, windowWaitSeconds
}

// TablePoolStats reports one table's buffer pool counters, for the
// per-table engine_pool_* instruments at GET /metrics.
func (db *Database) TablePoolStats(name string) (hits, misses, evicts int64, err error) {
	t, err := db.getTable(name)
	if err != nil {
		return 0, 0, 0, err
	}
	hits, misses, evicts = t.pool.Stats()
	return hits, misses, evicts, nil
}

// TablePoolStreamed is PoolStreamed for one table.
func (db *Database) TablePoolStreamed(name string) (int64, error) {
	t, err := db.getTable(name)
	if err != nil {
		return 0, err
	}
	return t.pool.Streamed(), nil
}

// PinnedFrames returns the total buffer pool pin count across tables.
// Between statements it must be zero — every fetch is balanced by an
// unpin on all paths, including early-terminated scans — and the
// leak-check tests assert exactly that.
func (db *Database) PinnedFrames() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.pool.Pinned()
	}
	return n
}

// Close flushes and closes every table.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("engine: already closed")
	}
	db.closed = true
	var first error
	for _, t := range db.tables {
		// Exclusive table lock: in-flight statements that grabbed the
		// table before closed was set finish before teardown.
		t.mu.Lock()
		defer t.mu.Unlock()
		if err := t.pool.FlushAll(); err != nil && first == nil {
			first = err
		}
		if t.wal != nil {
			// Data pages are down; the log is no longer needed.
			if err := t.pager.Sync(); err != nil && first == nil {
				first = err
			}
			if err := t.wal.Truncate(); err != nil && first == nil {
				first = err
			}
			if err := t.wal.Close(); err != nil && first == nil {
				first = err
			}
		}
		if err := t.pager.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Result is the outcome of executing one statement.
type Result struct {
	// Columns names the projected columns for SELECT results.
	Columns []string
	// Rows holds a SELECT's rows as values when no RowEncoder wrote them
	// (Exec, ExecIn, ExecStmt), and is nil when one did (ExecInto).
	Rows []catalog.Row
	// Keys holds the primary keys of the tuples the statement touched:
	// for SELECT, one per output row in row order (the tuple ids the
	// delay defense charges for); for UPDATE and DELETE, the keys the
	// affected rows had before the statement. An INSERT lists none.
	Keys []uint64
	// Affected is the number of rows inserted, updated, or deleted.
	Affected int
	// Body is the reply body Prepared.ExecInto was given, with what its
	// RowEncoder appended, and BodyRows the number of rows that holds.
	// Both are empty when the rows are in Rows instead.
	Body     []byte
	BodyRows int
}

// Exec executes one SQL statement through the prepared-statement path:
// a repeated SELECT shape hits the plan cache and skips parse and plan
// entirely.
func (db *Database) Exec(sql string) (*Result, error) {
	p, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	res, err := p.Exec()
	p.Release()
	return res, err
}

// bumpSchemaEpoch records a DDL statement: stamped plans become stale
// and the cache is purged. Callers hold the exclusive lock the DDL runs
// under, so the bump is ordered against every plan build and execution
// of the affected table.
func (db *Database) bumpSchemaEpoch() {
	db.schemaEpoch.Add(1)
	db.planCache.purge()
}

// PlanCacheStats reports the plan cache's counters for the
// engine_plan_cache_* instruments at GET /metrics.
func (db *Database) PlanCacheStats() (hits, misses, invalidations int64, entries int) {
	return db.planCache.stats()
}

// ExecScript executes a semicolon-separated statement sequence (e.g. a
// schema/load file), stopping at the first error. It returns one result
// per executed statement; on error the results of the statements that
// already ran are returned alongside it.
func (db *Database) ExecScript(src string) ([]*Result, error) {
	stmts, _, err := sqlmini.ParseScript(src)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(stmts))
	for i, stmt := range stmts {
		res, err := db.ExecStmt(stmt, nil)
		if err != nil {
			return results, fmt.Errorf("engine: statement %d: %w", i+1, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// ExecStmt executes a parsed statement. A non-nil parts restricts a
// SELECT or DELETE to the rows of those partitions (see PartitionSet);
// no other statement takes one.
func (db *Database) ExecStmt(stmt sqlmini.Statement, parts *PartitionSet) (*Result, error) {
	var w rowWriter
	return db.execStmt(stmt, parts, &w)
}

// execStmt is ExecStmt with a SELECT's rows written through w, whose
// sink — values or an encoder's bytes — the statement never sees.
func (db *Database) execStmt(stmt sqlmini.Statement, parts *PartitionSet, w *rowWriter) (*Result, error) {
	_, isSelect := stmt.(*sqlmini.Select)
	_, isDelete := stmt.(*sqlmini.Delete)
	if parts != nil && !isSelect && !isDelete {
		return nil, fmt.Errorf("engine: a partition set applies to SELECT and DELETE, not %T", stmt)
	}
	switch s := stmt.(type) {
	case *sqlmini.Select:
		res, _, err := db.execSelect(s, parts, w)
		return res, err
	case *sqlmini.Delete:
		return db.execDelete(s, parts)
	case *sqlmini.CreateTable:
		return db.execCreate(s)
	case *sqlmini.DropTable:
		if err := db.DropTable(s.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlmini.CreateIndex:
		return db.execCreateIndex(s)
	case *sqlmini.DropIndex:
		return db.execDropIndex(s)
	case *sqlmini.Insert:
		return db.execInsert(s)
	case *sqlmini.Update:
		return db.execUpdate(s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}
