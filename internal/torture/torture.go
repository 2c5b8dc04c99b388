// Package torture is the crash-consistency harness. Its engine crash
// drivers run one workload: a statement stream drawn from a seed and
// held, statement by statement, to an in-memory model of the table. The
// model also says what every crash may recover: the table as it stood
// after each commit batch of the log. The drivers crash the
// WAL-enabled engine and assert the recovery invariants:
//
//   - committed batches are fully replayed (recovered state equals the
//     model after the last commit at or before the crash point), at
//     every offset crashPoints enumerates — every byte of the first
//     batch, every record header and commit byte of the rest, and
//     stride-sampled payload bytes — by truncating a copy of the on-disk
//     files and reopening (Run);
//   - torn tails are dropped, never partially applied, including the
//     garbage a live torn append or a failed group flush leaves behind
//     (RunFaultSweep, RunGroupFlushFault);
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
// Every driver reads what a crash leaves through one step, reopenAt:
// materialize a captured crash image with its log cut at a chosen byte,
// reopen it with the one torture engine configuration, and read the
// recovered state. The drivers differ only in which crashes they take
// and which shadow states each crash may recover.
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

// Config bounds a torture run.
type Config struct {
	// Statements is the length of the drawn statement stream (default 108).
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
		c.Statements = 108
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
	Commits    int      // commit batches the workload wrote
	WALBytes   int64    // full log length enumerated over
	Violations []string // invariant violations, empty on success
	// Replay, when set, is a directory holding the crash image and the
	// offsets that failed, for a driver whose log no seed reproduces
	// (ReplayGroupCommit reads it).
	Replay string
}

const maxViolations = 20

// violatef records one invariant violation.
func (r *Result) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// full reports that the violation cap is reached: a driver stops there
// rather than drown the report in one systemic failure.
func (r *Result) full() bool { return len(r.Violations) >= maxViolations }

// expect records a violation unless the recovered state got, read with
// error err, is one of the allowed states of shadow.
func (r *Result) expect(what, got string, err error, shadow []string, allowed ...int) {
	if err != nil {
		r.violatef("%s: %v", what, err)
		return
	}
	for _, k := range allowed {
		if got == shadow[k] {
			return
		}
	}
	rows := 0
	if got != "" {
		rows = strings.Count(got, "\n") + 1
	}
	r.violatef("%s: recovered %d rows, none of shadow states %v", what, rows, allowed)
}

// poolPages is the buffer pool of every torture engine but the
// count-snapshot leg that outgrows it.
const poolPages = 1024

// openEngine opens dir with the one torture engine configuration: an
// unsynced WAL, since a crash here is a killed process and not a power
// cut, over a pool of pages pages.
func openEngine(dir string, pages int) (*engine.Database, error) {
	return engine.Open(dir, engine.WithWAL(false), engine.WithPoolPages(pages))
}

// image is a captured crash image: the raw bytes of every file a
// reopened engine needs, with one log cuttable per crash point.
type image struct {
	files map[string][]byte // file name -> bytes, catalog.json included
	log   string            // the file a crash point cuts ("" = none)
	pages int               // the pool the crashed engine ran with, and the reopen uses
}

// capture reads the on-disk bytes of dir while the engine still holds
// them open — exactly the crash image, since dirty pages live only in
// the pool.
func capture(dir, log string, pages int) (*image, error) {
	im := &image{files: make(map[string][]byte), log: log, pages: pages}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if im.files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	if _, ok := im.files["catalog.json"]; !ok {
		return nil, fmt.Errorf("torture: no catalog.json in %s", dir)
	}
	return im, nil
}

// materialize writes the image into dir with the log cut to cut bytes
// (all of it when cut < 0): the filesystem state a crash at log offset
// cut leaves behind.
func (im *image) materialize(dir string, cut int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range im.files {
		if name == im.log && cut >= 0 && cut < int64(len(data)) {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// walLog is the image's one non-empty log: a count-snapshot save
// names its files afresh, so its log is found rather than named.
func (im *image) walLog() ([]byte, error) {
	var log []byte
	for name, data := range im.files {
		if !strings.HasSuffix(name, ".wal") || len(data) == 0 {
			continue
		}
		if log != nil {
			return nil, errors.New("torture: more than one log in the crash image")
		}
		log = data
	}
	if log == nil {
		return nil, errors.New("torture: no log in the crash image")
	}
	return log, nil
}

// tornCuts are the byte counts of a torn append of an n-byte batch that
// reach the file, every one short of the whole: inside the first
// record's header (11 bytes for a patch, 9 for an image), mid-batch, and
// all but the commit byte.
func tornCuts(n int) []int { return []int{0, 1, 5, 9, 10, n / 2, n - 1} }

// reader reads the state a driver compares, canonicalized to a string.
type reader func(*engine.Database) (string, error)

// reopen opens dir — recovery replays its log — and reads the recovered
// state. Any failure is recovery's, reported as the violation it is.
func reopen(dir string, pages int, read reader) (string, error) {
	db, err := openEngine(dir, pages)
	if err != nil {
		// Recovery must absorb any torn tail.
		return "", fmt.Errorf("reopen failed: %w", err)
	}
	got, err := read(db)
	if err != nil {
		err = fmt.Errorf("reading recovered state: %w", err)
	}
	if cerr := db.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close after recovery: %w", cerr)
	}
	return got, err
}

// reopenAt is the one crash-and-recover step: it materializes im into a
// fresh dir with its log cut at cut bytes (all of it when cut < 0),
// reopens it, and reads the recovered state.
func reopenAt(dir string, im *image, cut int64, read reader) (string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := im.materialize(dir, cut); err != nil {
		return "", err
	}
	return reopen(dir, im.pages, read)
}

// tableState canonicalizes table t: sorted "col|col|…" lines, one per
// row. Two equal states mean identical logical contents.
func tableState(db *engine.Database) (string, error) {
	res, err := db.Exec("SELECT * FROM t")
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

// commitEnds is the one reader of a log's layout: it parses a clean log
// into its batches and checks it holds the want commits the workload
// says it wrote (any number when want < 0, for a saved replay). ends[k]
// is the log length after commit k, ends[0] = 0.
func commitEnds(log []byte, want int) (batches [][]int64, ends []int64, err error) {
	if batches, err = storage.WALBatches(log); err != nil {
		return nil, nil, fmt.Errorf("torture: %w", err)
	}
	if want >= 0 && len(batches) != want {
		return nil, nil, fmt.Errorf("torture: %d commit batches on disk for %d commits", len(batches), want)
	}
	ends = []int64{0}
	for _, recs := range batches {
		ends = append(ends, recs[len(recs)-1])
	}
	return batches, ends, nil
}

// crashPoints enumerates the log offsets to torture: every byte of the
// first batch, every header and commit byte of later batches plus
// stride-sampled payload bytes, and all batch boundaries. batches is the
// log's layout from storage.WALBatches. The list is deduped, sorted, and
// (when max > 0) evenly downsampled with the batch boundaries always
// retained.
func crashPoints(batches [][]int64, stride int, max int) []int64 {
	seen := map[int64]bool{0: true}
	boundary := map[int64]bool{0: true}
	start := int64(0)
	for i, recs := range batches {
		end := recs[len(recs)-1]
		seen[end], boundary[end] = true, true
		if i == 0 {
			// First batch: exhaustive, every byte.
			for off := start; off <= end; off++ {
				seen[off] = true
			}
			start = end
			continue
		}
		// Later batches: record headers, record boundaries, the commit
		// byte, and strided payload bytes.
		rec := start
		for _, recEnd := range recs[:len(recs)-1] {
			// Every header byte of an image (9) or a patch (11) missing.
			for h := int64(0); h <= 11 && rec+h < recEnd; h++ {
				seen[rec+h] = true
			}
			seen[recEnd-1] = true
			rec = recEnd
		}
		seen[end-1] = true // commit byte missing
		for off := start; off < end; off += int64(stride) {
			seen[off] = true
		}
		start = end
	}
	points := make([]int64, 0, len(seen))
	for off := range seen {
		points = append(points, off)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	if max > 0 && len(points) > max {
		sampled := make([]int64, 0, max+len(boundary))
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

// expectedIndex returns the commit whose state a crash at log offset n
// must recover: the last commit boundary at or before n.
func expectedIndex(ends []int64, n int64) int {
	k := 0
	for i, end := range ends {
		if end <= n {
			k = i
		}
	}
	return k
}

// Run draws seed's statement stream (cfg.Statements long), runs it on
// the torture engine held to the model, then truncates a copy of its log
// at every offset crashPoints enumerates and reopens it: recovery must
// equal the model's table after the last batch the cut leaves whole. A
// failing seed replays byte for byte: the stream, and so the log,
// depends on the seed alone.
func Run(scratch string, cfg Config, seed uint64) (*Result, error) {
	cfg.fill()
	s, err := cleanStream(filepath.Join(scratch, "work"), seed, cfg.Statements)
	if err != nil {
		return nil, err
	}
	points := crashPoints(s.batches, cfg.Stride, cfg.MaxPoints)
	res := &Result{Points: len(points), Commits: len(s.batches), WALBytes: s.ends[len(s.ends)-1]}
	cfg.Logf("torture: seed %d: %d statements, %d crash points over %d bytes of log (%d commits)",
		seed, len(s.steps), len(points), res.WALBytes, res.Commits)
	crashDir, againDir := filepath.Join(scratch, "crash"), filepath.Join(scratch, "again")
	for i, off := range points {
		if res.full() {
			break
		}
		k, what := expectedIndex(s.ends, off), fmt.Sprintf("seed %d, offset %d", seed, off)
		// Now and then, recovery must also leave a log a later commit
		// extends: one row committed on the recovered engine, then a
		// crash, recovers the same state plus that row.
		read := reader(tableState)
		var after *image
		if i%64 == 0 {
			read = func(db *engine.Database) (string, error) {
				got, err := tableState(db)
				if err == nil {
					after, err = commitAfter(db, crashDir)
				}
				return got, err
			}
		}
		got, err := reopenAt(crashDir, s.im, off, read)
		res.expect(what, got, err, s.states, k)
		if after != nil {
			again, err := reopenAt(againDir, after, -1, tableState)
			res.expect(what+", a commit after recovery", again, err, []string{withAfterRow(s.states[k])}, 0)
		}
	}
	return res, nil
}

// afterRow is the row commitAfter adds, canonical as tableState renders
// it: its key is past every key a stream writes.
var afterRow = fmt.Sprintf("%d|after", streamKeys)

// withAfterRow is state with afterRow added, canonical as tableState
// renders it.
func withAfterRow(state string) string {
	lines := []string{afterRow}
	if state != "" {
		lines = append(lines, strings.Split(state, "\n")...)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// commitAfter commits afterRow on the engine open in dir and captures
// the crash image it leaves.
func commitAfter(db *engine.Database, dir string) (*image, error) {
	if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'after')", streamKeys)); err != nil {
		return nil, err
	}
	return capture(dir, "t.tbl.wal", poolPages)
}

// sweep is the one live-kill sweep. For each commit k of seed's stream
// it arms kill(k, n) — a fault that fires on commit k; n is the length of
// commit k's batch in the clean run, for cuts that aim inside it — and
// runs the stream again, held to the model, until a statement fails. The
// one to fail must be the model's k-th changing statement, which writes
// batch k, and its error must wrap storage.ErrIO (the signal the shield
// latches degraded mode on). Then the process "crashes": the files are
// captured without a close, and recovery must equal the model after
// batch k-1, or after batch k too when mayCommit says the kill can come
// after commit k reached the file.
func sweep(scratch string, cfg Config, seed uint64, kill func(k, n int) fault.Rule, mayCommit bool) (*Result, error) {
	cfg.fill()
	s, err := cleanStream(filepath.Join(scratch, "clean"), seed, cfg.Statements)
	if err != nil {
		return nil, err
	}
	res := &Result{Commits: len(s.batches), WALBytes: s.ends[len(s.ends)-1]}
	for k := 1; k <= res.Commits && !res.full(); k++ {
		dir := filepath.Join(scratch, fmt.Sprintf("kill-%d", k))
		rule := kill(k, int(s.ends[k]-s.ends[k-1]))
		what := fmt.Sprintf("seed %d, %v fault on commit %d", seed, rule.Site, k)
		im, ran, stmtErr, err := runStream(dir, s.steps, fault.NewRegistry(uint64(k)).Add(rule))
		switch {
		case err != nil:
			return nil, fmt.Errorf("torture: %s: %w", what, err)
		case stmtErr == nil:
			return nil, fmt.Errorf("torture: %s never fired", what)
		case ran != s.writers[k-1]:
			return nil, fmt.Errorf("torture: %s failed statement %d, not %d: %w", what, ran, s.writers[k-1], stmtErr)
		}
		if !errors.Is(stmtErr, storage.ErrIO) {
			res.violatef("%s: injected fault not classified ErrIO: %v", what, stmtErr)
		}
		allowed := []int{k - 1}
		if mayCommit {
			allowed = append(allowed, k)
		}
		got, err := reopenAt(filepath.Join(scratch, "crash"), im, -1, tableState)
		res.expect(what, got, err, s.states, allowed...)
		res.Points++
		os.RemoveAll(dir)
	}
	return res, nil
}

// RunFaultSweep drives the wal.append failpoint instead of offline
// truncation: each commit k of seed's stream is torn once, in-process
// (the torn length cycling through header, mid-batch and
// all-but-the-commit-byte cuts of commit k's own batch), and recovery
// must land exactly on the model after commit k-1. This exercises the
// same invariant as Run but through the live write path, including the
// garbage tail the torn write leaves past the logical end of the log.
func RunFaultSweep(scratch string, cfg Config, seed uint64) (*Result, error) {
	// Every cut is strictly below commit k's batch length, so the torn
	// write is always genuinely partial: a cut of the whole buffer would
	// let the batch — commit marker included — reach disk before the
	// error, and recovery to state k would then be correct too. Batches
	// differ in length (an image, or a patch of a few bytes), so each
	// cut is taken from its own batch.
	return sweep(scratch, cfg, seed, func(k, n int) fault.Rule {
		cuts := tornCuts(n)
		return fault.Rule{Site: fault.WALAppend, Kind: fault.Torn, TornBytes: cuts[k%len(cuts)], After: uint64(k - 1), Count: 1}
	}, false)
}

// RunGroupFlushFault drives the wal.groupflush failpoint: for each
// commit k of seed's stream, one run injects an I/O error in the group
// leader's flush after the coalesced write hits the file but before the
// fsync. Recovery must land on the model after commit k-1 or after
// commit k — the write reached the file before the "fsync" died, so the
// commit's durability is genuinely ambiguous, exactly like a real power
// cut mid-fsync; what is never allowed is a torn or mixed state.
func RunGroupFlushFault(scratch string, cfg Config, seed uint64) (*Result, error) {
	return sweep(scratch, cfg, seed, func(k, _ int) fault.Rule {
		return fault.Rule{Site: fault.WALGroupFlush, Kind: fault.Error, After: uint64(k - 1), Count: 1}
	}, true)
}

// canonCounts canonicalizes an (ids, counts) vector for set comparison,
// one "id=count" line per id.
func canonCounts(ids []uint64, counts []float64) string {
	lines := make([]string, len(ids))
	for i, id := range ids {
		lines[i] = fmt.Sprintf("%d=%.6f", id, counts[i])
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
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
// exactly A (shadow state 0); one that returned must recover exactly B
// (state 1). So the recovered quote is exactly quote(A) or quote(B) and
// never more than the last acknowledged one: charged-delay accounting
// stays monotone. Two legs: a snapshot that fits the buffer pool, and
// one several times its size.
func RunCountSnapshot(scratch string, cfg Config) (*Result, error) {
	cfg.fill()
	res := &Result{Commits: 2}
	legs := []countLeg{
		{"snapshot fits the pool", poolPages, 40},
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
	shadow := []string{canonCounts(ids, countsA), canonCounts(ids, countsB)}
	workDir, crashDir := filepath.Join(scratch, "work"), filepath.Join(scratch, "crash")
	readCounts := func(db *engine.Database) (string, error) {
		store, err := engine.NewCountStore(db, "t")
		if err != nil {
			return "", err
		}
		got, counts, err := store.AllCounts()
		return canonCounts(got, counts), err
	}
	// check reopens the crash image and holds what it recovers against
	// snapshot want.
	check := func(what string, im *image, want int) {
		res.Points++
		got, err := reopenAt(crashDir, im, -1, readCounts)
		res.expect(leg.name+", "+what, got, err, shadow, want)
	}

	// run saves A and then, under the armed faults, B in one process, and
	// takes the crash image the moment the second save is over; before is
	// the image between the two.
	run := func(faults *fault.Registry) (before, after *image, saveErr error, err error) {
		if err := os.RemoveAll(workDir); err != nil {
			return nil, nil, nil, err
		}
		db, err := openEngine(workDir, leg.poolPages)
		if err != nil {
			return nil, nil, nil, err
		}
		defer db.Close() // releases handles only — the images predate it
		store, err := engine.NewCountStore(db, "t")
		if err != nil {
			return nil, nil, nil, err
		}
		if err := store.ReplaceAllCounts(ids, countsA); err != nil {
			return nil, nil, nil, err
		}
		if before, err = capture(workDir, "", leg.poolPages); err != nil {
			return nil, nil, nil, err
		}
		fault.Enable(faults)
		saveErr = store.ReplaceAllCounts(ids, countsB)
		fault.Disable()
		after, err = capture(workDir, "", leg.poolPages)
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
	appends := clean.Hits(fault.WALAppend)
	log, err := final.walLog()
	if err != nil {
		return err
	}
	_, ends, err := commitEnds(log, int(appends))
	if err != nil {
		return err
	}
	check("killed after the save returned", final, 1)
	// Killed between the catalog commit and the removal of the files it
	// orphaned: the final image plus every file only the earlier one has.
	for name, data := range before.files {
		if _, ok := final.files[name]; !ok {
			final.files[name] = data
		}
	}
	check("killed before the old files were removed", final, 1)

	var kills []kill
	for k := uint64(0); k < appends; k++ {
		n := int(ends[k+1] - ends[k])
		if appends > 1 {
			cuts := tornCuts(n)
			kills = append(kills, kill{fault.WALAppend, k, cuts[int(k)%len(cuts)]})
			continue
		}
		// A save of one append: every byte of it, the commit byte included.
		for cut := 0; cut <= n; cut++ {
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
		if res.full() {
			break
		}
		// Torn is Error wherever nothing is written.
		_, im, saveErr, err := run(fault.NewRegistry(k.after).Add(fault.Rule{
			Site: k.site, Kind: fault.Torn, TornBytes: k.torn, After: k.after, Count: 1,
		}))
		if err != nil {
			return err
		}
		want := 0
		if saveErr == nil {
			want = 1 // the save survived the fault: it must have committed
		}
		check(k.String(), im, want)
	}
	return nil
}
