// Package torture is the crash-consistency harness: it replays a
// deterministic mutating workload against the WAL-enabled engine,
// simulates a crash at enumerated byte offsets of the log — every byte
// of the first commit batch, every header/commit byte of the rest, and
// stride-sampled payload bytes — by truncating a copy of the on-disk
// files and reopening, then asserts the recovery invariants:
//
//   - committed batches are fully replayed (recovered state equals the
//     shadow state as of the last commit at or before the crash point);
//   - torn tails are dropped, never partially applied;
//   - every recovered heap page decodes cleanly (the open-time index
//     rebuild touches every row of every page);
//   - count-snapshot saves (ReplaceAllCounts) are atomic at any size,
//     one that fits the buffer pool and one several times it — recovery
//     yields exactly snapshot A or snapshot B, so the charged-delay
//     quote, a deterministic function of the count vector, is exactly
//     quote(A) or quote(B) and never a torn in-between. These crashes are
//     live: a failpoint kills the save and the files are taken as they
//     stand (see RunCountSnapshot).
//
// The truncated-log crash images are honest for this engine because the
// data-page path is no-steal while the pool has room: mutations dirty
// pages only in the buffer pool (allocation writes through immediately),
// so the on-disk table bytes plus a truncated log are precisely what a
// crash at that log offset leaves behind. Those workloads stay far below
// walCheckpointBytes, so no checkpoint retires the log mid-run.
package torture

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/storage"
)

// walRecordSize mirrors the storage package's page-record layout:
// kind(1) + pageID(4) + crc(4) + payload(PageSize).
const walRecordSize = 1 + 4 + 4 + storage.PageSize

// Config bounds a torture run.
type Config struct {
	// Statements is the mutating workload length (default 18).
	Statements int
	// Stride samples payload bytes of batches after the first (default 97).
	Stride int
	// MaxPoints caps the crash points exercised (0 = every candidate).
	// Candidates are downsampled evenly and deterministically; batch
	// boundaries are always kept.
	MaxPoints int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Statements <= 0 {
		c.Statements = 18
	}
	if c.Stride <= 0 {
		c.Stride = 97
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Result reports what a torture run covered.
type Result struct {
	Points     int      // crash points exercised
	Statements int      // workload statements (commits) replayed
	WALBytes   int64    // full log length enumerated over
	Violations []string // invariant violations, empty on success
}

const maxViolations = 20

// image is a captured crash image: the raw bytes of every file a
// reopened engine needs, with the log truncatable per crash point.
type image struct {
	catalog []byte
	tables  map[string][]byte // file name -> bytes (.tbl files)
	wal     []byte
	walName string
}

// capture reads the on-disk bytes of dir while the engine still holds
// them open — exactly the crash image, since dirty pages live only in
// the pool.
func capture(dir, walName string) (*image, error) {
	im := &image{tables: make(map[string][]byte), walName: walName}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		switch {
		case e.Name() == "catalog.json":
			im.catalog = data
		case e.Name() == walName:
			im.wal = data
		case strings.HasSuffix(e.Name(), ".wal"):
			// A second table's log; keep it verbatim.
			im.tables[e.Name()] = data
		default:
			im.tables[e.Name()] = data
		}
	}
	if im.catalog == nil {
		return nil, fmt.Errorf("torture: no catalog.json in %s", dir)
	}
	return im, nil
}

// materialize writes the image into dir with the log truncated to n
// bytes — the filesystem state a crash at log offset n leaves behind.
func (im *image) materialize(dir string, n int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), im.catalog, 0o644); err != nil {
		return err
	}
	for name, data := range im.tables {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	if im.walName == "" {
		return nil
	}
	if n > int64(len(im.wal)) {
		n = int64(len(im.wal))
	}
	return os.WriteFile(filepath.Join(dir, im.walName), im.wal[:n], 0o644)
}

// snapshotTable canonicalizes a table's contents: sorted "col|col|…"
// lines, one per row. Two equal snapshots mean identical logical state.
func snapshotTable(db *engine.Database, table string) (string, error) {
	res, err := db.Exec("SELECT * FROM " + table)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}

// workload returns the deterministic mutating statement sequence: a core
// of inserts with periodic updates and deletes so recovered states
// differ at every commit boundary.
func workload(n int) []string {
	stmts := make([]string, 0, n)
	key := 0
	for len(stmts) < n {
		switch len(stmts) % 5 {
		case 3:
			if key > 1 {
				stmts = append(stmts, fmt.Sprintf(
					"UPDATE t SET v = 'patched-%d' WHERE id = %d", len(stmts), key/2))
				continue
			}
		case 4:
			if key > 2 {
				stmts = append(stmts, fmt.Sprintf("DELETE FROM t WHERE id = %d", key-1))
				continue
			}
		}
		stmts = append(stmts, fmt.Sprintf("INSERT INTO t VALUES (%d, 'row-%d')", key, key))
		key++
	}
	return stmts
}

// runWorkload executes stmts against a fresh WAL-enabled engine in dir,
// recording the canonical state and log length after every statement.
// The returned image is captured with the engine still open — the crash
// image — and the engine is closed afterwards only to release handles.
func runWorkload(dir string, stmts []string) (im *image, states []string, walEnds []int64, err error) {
	db, err := engine.Open(dir, engine.WithWAL(false), engine.WithPoolPages(1024))
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	walPath := filepath.Join(dir, "t.tbl.wal")
	sizeOf := func() (int64, error) {
		st, err := os.Stat(walPath)
		if err != nil {
			return 0, err
		}
		return st.Size(), nil
	}
	// State 0: table created, log empty.
	s0, err := snapshotTable(db, "t")
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	states = append(states, s0)
	walEnds = append(walEnds, 0)
	for _, sql := range stmts {
		if _, err := db.Exec(sql); err != nil {
			db.Close()
			return nil, nil, nil, fmt.Errorf("torture: workload %q: %w", sql, err)
		}
		s, err := snapshotTable(db, "t")
		if err != nil {
			db.Close()
			return nil, nil, nil, err
		}
		sz, err := sizeOf()
		if err != nil {
			db.Close()
			return nil, nil, nil, err
		}
		states = append(states, s)
		walEnds = append(walEnds, sz)
	}
	im, err = capture(dir, "t.tbl.wal")
	db.Close() // release handles; the crash image is already in memory
	if err != nil {
		return nil, nil, nil, err
	}
	return im, states, walEnds, nil
}

// crashPoints enumerates the log offsets to torture: every byte of the
// first batch, every header and commit byte of later batches plus
// stride-sampled payload bytes, and all batch boundaries. The list is
// deduped, sorted, and (when max > 0) evenly downsampled with the batch
// boundaries always retained.
func crashPoints(walEnds []int64, stride int, max int) []int64 {
	total := walEnds[len(walEnds)-1]
	seen := make(map[int64]bool)
	add := func(off int64) {
		if off >= 0 && off <= total {
			seen[off] = true
		}
	}
	boundary := make(map[int64]bool)
	for i, end := range walEnds {
		add(end)
		boundary[end] = true
		if i == 0 {
			continue
		}
		start := walEnds[i-1]
		if i == 1 {
			// First batch: exhaustive, every byte.
			for off := start; off <= end; off++ {
				add(off)
			}
			continue
		}
		// Later batches: record headers, record boundaries, the commit
		// byte, and strided payload bytes.
		for rec := start; rec < end-1; rec += walRecordSize {
			for h := int64(0); h <= 9; h++ {
				add(rec + h)
			}
			add(rec + walRecordSize - 1)
		}
		add(end - 1) // commit byte missing
		for off := start; off < end; off += int64(stride) {
			add(off)
		}
	}
	points := make([]int64, 0, len(seen))
	for off := range seen {
		points = append(points, off)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	if max > 0 && len(points) > max {
		sampled := make([]int64, 0, max+len(walEnds))
		kept := make(map[int64]bool)
		for i := 0; i < max; i++ {
			off := points[i*len(points)/max]
			if !kept[off] {
				sampled = append(sampled, off)
				kept[off] = true
			}
		}
		for off := range boundary {
			if !kept[off] {
				sampled = append(sampled, off)
				kept[off] = true
			}
		}
		sort.Slice(sampled, func(i, j int) bool { return sampled[i] < sampled[j] })
		points = sampled
	}
	return points
}

// expectedIndex returns the statement index whose state a crash at log
// offset n must recover: the last commit boundary at or before n.
func expectedIndex(walEnds []int64, n int64) int {
	k := 0
	for i, end := range walEnds {
		if end <= n {
			k = i
		}
	}
	return k
}

// Run executes the WAL-commit crash enumeration: workload, capture,
// then truncate-and-reopen at every enumerated offset, checking that
// recovery lands exactly on a committed shadow state.
func Run(scratch string, cfg Config) (*Result, error) {
	cfg.fill()
	workDir := filepath.Join(scratch, "work")
	im, states, walEnds, err := runWorkload(workDir, workload(cfg.Statements))
	if err != nil {
		return nil, err
	}
	points := crashPoints(walEnds, cfg.Stride, cfg.MaxPoints)
	res := &Result{
		Points:     len(points),
		Statements: cfg.Statements,
		WALBytes:   walEnds[len(walEnds)-1],
	}
	cfg.Logf("torture: %d crash points over %d bytes of log (%d commits)",
		len(points), res.WALBytes, cfg.Statements)
	crashDir := filepath.Join(scratch, "crash")
	for i, off := range points {
		if len(res.Violations) >= maxViolations {
			break
		}
		if err := os.RemoveAll(crashDir); err != nil {
			return nil, err
		}
		if err := im.materialize(crashDir, off); err != nil {
			return nil, err
		}
		db, err := engine.Open(crashDir, engine.WithWAL(false), engine.WithPoolPages(1024))
		if err != nil {
			// Recovery must absorb any torn tail; failure to open is a
			// violation, not an environment error.
			res.Violations = append(res.Violations,
				fmt.Sprintf("offset %d: reopen failed: %v", off, err))
			continue
		}
		got, err := snapshotTable(db, "t")
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("offset %d: post-recovery scan failed: %v", off, err))
			db.Close()
			continue
		}
		k := expectedIndex(walEnds, off)
		if got != states[k] {
			res.Violations = append(res.Violations,
				fmt.Sprintf("offset %d: recovered state != state after commit %d (got %d rows, want %d)",
					off, k, strings.Count(got, "\n")+1, strings.Count(states[k], "\n")+1))
		}
		if err := db.Close(); err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("offset %d: close after recovery: %v", off, err))
		}
		// Recovery must be idempotent: a second crash-free reopen (the log
		// was checkpointed away by the first) lands on the same state.
		if i%64 == 0 {
			db2, err := engine.Open(crashDir, engine.WithWAL(false), engine.WithPoolPages(1024))
			if err != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("offset %d: second reopen failed: %v", off, err))
				continue
			}
			again, err := snapshotTable(db2, "t")
			if err == nil && again != states[k] {
				err = fmt.Errorf("state drifted from commit %d", k)
			}
			if err != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("offset %d: recovery not idempotent: %v", off, err))
			}
			db2.Close()
		}
	}
	return res, nil
}

// canonCounts canonicalizes an (ids, counts) vector for set comparison.
func canonCounts(ids []uint64, counts []float64) string {
	lines := make([]string, len(ids))
	for i, id := range ids {
		lines[i] = fmt.Sprintf("%d=%.6f", id, counts[i])
	}
	sort.Strings(lines)
	return strings.Join(lines, ",")
}

// quoteOf is a stand-in for the gate's pricing: any deterministic
// function of the count vector works for the atomicity check, because
// snapshot identity implies quote identity. Total count is the simplest.
func quoteOf(counts []float64) float64 {
	var sum float64
	for _, c := range counts {
		sum += c
	}
	return sum
}

// countLeg is one shape of snapshot save to torture: ids tuples saved
// through a pool of poolPages pages.
type countLeg struct {
	name      string
	poolPages int
	ids       int
}

// kill is one way for the process to die inside a save: the site's
// (after+1)-th hit counted from the start of the save fails — a WAL
// append after torn bytes of it reached the file — and the files are
// taken as they then stand.
type kill struct {
	site  fault.Site
	after uint64
	torn  int
}

func (k kill) String() string {
	if k.site == fault.WALAppend {
		return fmt.Sprintf("%v #%d torn at byte %d", k.site, k.after+1, k.torn)
	}
	return fmt.Sprintf("%v #%d", k.site, k.after+1)
}

// sample keeps at most max of xs, evenly spaced (all of them when max is 0).
func sample[T any](xs []T, max int) []T {
	if max <= 0 || len(xs) <= max {
		return xs
	}
	out := make([]T, max)
	for i := range out {
		out[i] = xs[i*len(xs)/max]
	}
	return out
}

// RunCountSnapshot tortures the SaveCounts path: snapshot A is saved,
// then a save of snapshot B (same ids, every count higher, as decayed
// counts between saves are) is killed at every file it writes — each log
// append torn at sampled bytes, sampled data-page writes, the data-file
// sync, between the catalog commit and the removal of the old files, and
// just after it returned. A save that reported failure must recover
// exactly A; one that returned must recover exactly B. So the recovered
// quote is exactly quote(A) or quote(B) and never more than the last
// acknowledged one: charged-delay accounting stays monotone. Two legs: a
// snapshot that fits the buffer pool, and one several times its size.
func RunCountSnapshot(scratch string, cfg Config) (*Result, error) {
	cfg.fill()
	res := &Result{Statements: 2}
	legs := []countLeg{
		{"snapshot fits the pool", 1024, 40},
		{"snapshot exceeds the pool", 8, 5000},
	}
	for i, leg := range legs {
		if err := leg.run(filepath.Join(scratch, fmt.Sprint(i)), cfg, res); err != nil {
			return nil, fmt.Errorf("torture: %s: %w", leg.name, err)
		}
	}
	return res, nil
}

func (leg countLeg) run(scratch string, cfg Config, res *Result) error {
	ids := make([]uint64, leg.ids)
	countsA := make([]float64, leg.ids)
	countsB := make([]float64, leg.ids)
	for i := range ids {
		ids[i] = uint64(i + 1)
		countsA[i] = float64(i%7) + 0.5
		countsB[i] = countsA[i] + float64(i%3) + 1 // B dominates A
	}
	wantA, wantB := canonCounts(ids, countsA), canonCounts(ids, countsB)
	workDir, crashDir := filepath.Join(scratch, "work"), filepath.Join(scratch, "crash")
	open := func(dir string) (*engine.Database, *engine.CountStore, error) {
		db, err := engine.Open(dir, engine.WithWAL(false), engine.WithPoolPages(leg.poolPages))
		if err != nil {
			return nil, nil, err
		}
		store, err := engine.NewCountStore(db, "t")
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, store, nil
	}
	// check reopens the crash image and holds what it recovers against want.
	check := func(what string, im *image, want string) error {
		if err := os.RemoveAll(crashDir); err != nil {
			return err
		}
		if err := im.materialize(crashDir, 0); err != nil {
			return err
		}
		res.Points++
		db, store, err := open(crashDir)
		if err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("%s, %v: reopen failed: %v", leg.name, what, err))
			return nil
		}
		defer db.Close()
		got, counts, err := store.AllCounts()
		switch {
		case err != nil:
			res.Violations = append(res.Violations, fmt.Sprintf("%s, %v: reading recovered counts: %v", leg.name, what, err))
		case canonCounts(got, counts) != want:
			res.Violations = append(res.Violations, fmt.Sprintf(
				"%s, %v: recovered %d ids summing %.0f; snapshot A is %d ids / %.0f, B is %d / %.0f, and this kill must recover %s",
				leg.name, what, len(got), quoteOf(counts), len(ids), quoteOf(countsA), len(ids), quoteOf(countsB),
				map[string]string{wantA: "A", wantB: "B"}[want]))
		}
		return nil
	}

	// run saves A and then, under the armed faults, B in one process, and
	// takes the crash image the moment the second save is over; before is
	// the image between the two.
	run := func(faults *fault.Registry) (before, after *image, saveErr error, err error) {
		if err := os.RemoveAll(workDir); err != nil {
			return nil, nil, nil, err
		}
		db, store, err := open(workDir)
		if err != nil {
			return nil, nil, nil, err
		}
		defer db.Close() // releases handles only — the images predate it
		if err := store.ReplaceAllCounts(ids, countsA); err != nil {
			return nil, nil, nil, err
		}
		if before, err = capture(workDir, ""); err != nil {
			return nil, nil, nil, err
		}
		fault.Enable(faults)
		saveErr = store.ReplaceAllCounts(ids, countsB)
		fault.Disable()
		after, err = capture(workDir, "")
		return before, after, saveErr, err
	}

	// An undisturbed save counts the hits of every site, and its image is
	// the kill just after it returned.
	clean := fault.NewRegistry(0)
	before, final, saveErr, err := run(clean)
	if err == nil {
		err = saveErr
	}
	if err != nil {
		return err
	}
	if err := check("killed after the save returned", final, wantB); err != nil {
		return err
	}
	// Killed between the catalog commit and the removal of the files it
	// orphaned: the final image plus every file only the earlier one has.
	for name, data := range before.tables {
		if _, ok := final.tables[name]; !ok {
			final.tables[name] = data
		}
	}
	if err := check("killed before the old files were removed", final, wantB); err != nil {
		return err
	}

	var kills []kill
	tornCuts := []int{0, 1, 5, 9, walRecordSize / 2, walRecordSize - 1, walRecordSize}
	appends := clean.Hits(fault.WALAppend)
	for k := uint64(0); k < appends; k++ {
		if appends > 1 {
			kills = append(kills, kill{fault.WALAppend, k, tornCuts[int(k)%len(tornCuts)]})
			continue
		}
		// A save of one append: every byte of it, the commit byte included.
		for cut := 0; cut <= walRecordSize; cut++ {
			kills = append(kills, kill{fault.WALAppend, k, cut})
		}
	}
	var writes []kill
	for k := uint64(0); k < clean.Hits(fault.PagerWrite); k++ {
		writes = append(writes, kill{site: fault.PagerWrite, after: k})
	}
	kills = append(kills, sample(writes, 16)...)
	for k := uint64(0); k < clean.Hits(fault.PagerSync); k++ {
		kills = append(kills, kill{site: fault.PagerSync, after: k})
	}
	kills = sample(kills, cfg.MaxPoints/2)
	cfg.Logf("torture: %s: %d kills over %d log appends, %d page writes, %d syncs",
		leg.name, len(kills), appends, clean.Hits(fault.PagerWrite), clean.Hits(fault.PagerSync))
	for _, k := range kills {
		if len(res.Violations) >= maxViolations {
			break
		}
		// Torn is Error wherever nothing is written.
		_, im, saveErr, err := run(fault.NewRegistry(k.after).Add(fault.Rule{
			Site: k.site, Kind: fault.Torn, TornBytes: k.torn, After: k.after, Count: 1,
		}))
		if err != nil {
			return err
		}
		want := wantA
		if saveErr == nil {
			want = wantB // the save survived the fault: it must have committed
		}
		if err := check(k.String(), im, want); err != nil {
			return err
		}
	}
	return nil
}

// RunFaultSweep drives the wal.append failpoint instead of offline
// truncation: for each commit k of the workload, one run arms a torn
// write on the k-th append (the torn length cycling through header,
// mid-record, record-boundary, and near-full cuts), the engine observes
// the injected I/O error, the process "crashes" (files captured without
// a close), and recovery must land exactly on the state after commit
// k-1. This exercises the same invariant as Run but through the live
// write path, including the garbage tail the torn write leaves past the
// logical end of the log.
func RunFaultSweep(scratch string, cfg Config) (*Result, error) {
	cfg.fill()
	stmts := workload(cfg.Statements)
	// Every cut is strictly below the minimum batch size (one record plus
	// the commit byte), so the torn write is always genuinely partial: a
	// cut past the whole buffer would let the batch — commit marker
	// included — reach disk before the error, and recovery to state k
	// would then be correct too.
	tornCuts := []int{0, 1, 5, 9, walRecordSize / 2, walRecordSize - 1, walRecordSize}
	res := &Result{Statements: len(stmts)}
	for k := 1; k <= len(stmts); k++ {
		if len(res.Violations) >= maxViolations {
			break
		}
		dir := filepath.Join(scratch, fmt.Sprintf("sweep-%d", k))
		db, err := engine.Open(dir, engine.WithWAL(false), engine.WithPoolPages(1024))
		if err != nil {
			return nil, err
		}
		if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
			db.Close()
			return nil, err
		}
		var states []string
		s0, err := snapshotTable(db, "t")
		if err != nil {
			db.Close()
			return nil, err
		}
		states = append(states, s0)
		fault.Enable(fault.NewRegistry(uint64(k)).Add(fault.Rule{
			Site:      fault.WALAppend,
			Kind:      fault.Torn,
			TornBytes: tornCuts[k%len(tornCuts)],
			After:     uint64(k - 1),
			Count:     1,
		}))
		var faultErr error
		for j, sql := range stmts {
			_, err := db.Exec(sql)
			if err != nil {
				if j != k-1 {
					fault.Disable()
					db.Close()
					return nil, fmt.Errorf("torture: sweep %d: statement %d failed early: %w", k, j+1, err)
				}
				faultErr = err
				break
			}
			s, serr := snapshotTable(db, "t")
			if serr != nil {
				fault.Disable()
				db.Close()
				return nil, serr
			}
			states = append(states, s)
		}
		fault.Disable()
		if faultErr == nil {
			db.Close()
			return nil, fmt.Errorf("torture: sweep %d: torn fault never fired", k)
		}
		if !errors.Is(faultErr, storage.ErrIO) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("sweep %d: injected fault not classified ErrIO: %v", k, faultErr))
		}
		// Crash: capture the files as they are; no flush, no close.
		im, err := capture(dir, "t.tbl.wal")
		db.Close() // release handles only — the image predates this
		if err != nil {
			return nil, err
		}
		crashDir := filepath.Join(scratch, fmt.Sprintf("sweep-%d-crash", k))
		if err := im.materialize(crashDir, int64(len(im.wal))); err != nil {
			return nil, err
		}
		db2, err := engine.Open(crashDir, engine.WithWAL(false), engine.WithPoolPages(1024))
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("sweep %d: reopen failed: %v", k, err))
			continue
		}
		got, err := snapshotTable(db2, "t")
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("sweep %d: post-recovery scan: %v", k, err))
		} else if got != states[k-1] {
			res.Violations = append(res.Violations,
				fmt.Sprintf("sweep %d: recovered state != state after commit %d", k, k-1))
		}
		db2.Close()
		res.Points++
		os.RemoveAll(dir)
		os.RemoveAll(crashDir)
	}
	return res, nil
}
