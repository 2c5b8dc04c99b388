package torture

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
)

// RunGroupCommit tortures the group-commit path: concurrent bursts of
// multi-row INSERT statements commit through the WAL's group queue, at
// its own accumulation window, against a synced log (fsync latency piles
// committers up), so flushes carry several coalesced commit batches. The
// captured log is then truncated at every enumerated offset — including
// offsets strictly inside a coalesced group write — and recovery must
// expose a committed prefix per participating commit:
//
//   - every recovered statement is whole (all of its rows or none);
//   - the number of recovered statements equals the number of complete
//     commit batches before the crash point, even mid-group;
//   - recovered sets grow monotonically with the crash offset;
//   - the full log recovers every statement.
//
// The run retries bursts until the WAL stats prove at least one flush
// carried ≥2 commits, so the enumeration demonstrably crosses group
// boundaries rather than degenerating to the solo-leader path.
//
// Which commits coalesce depends on the scheduler, so no seed replays a
// run's log. On a violation the run saves the crash image and the
// offsets that failed (with the one checked before each) in a directory
// it names in Result.Replay; ReplayGroupCommit rechecks recovery from
// those bytes.
func RunGroupCommit(scratch string, cfg Config) (*Result, error) {
	cfg.fill()
	im, stmts, err := groupCommitImage(filepath.Join(scratch, "work"))
	if err != nil {
		return nil, err
	}
	batches, ends, err := commitEnds(im.files[im.log], stmts)
	if err != nil {
		return nil, err
	}
	points := crashPoints(batches, cfg.Stride, cfg.MaxPoints)
	res := &Result{Points: len(points), Commits: stmts, WALBytes: ends[len(ends)-1]}
	cfg.Logf("torture: group commit, %d crash points over %d bytes (%d commits, coalesced flushes confirmed)",
		len(points), res.WALBytes, stmts)
	if failed := checkGroupCuts(filepath.Join(scratch, "crash"), im, ends, points, res); len(failed) > 0 {
		res.Replay = filepath.Join(scratch, "replay")
		if err := saveReplay(res.Replay, im, failed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// groupCommitImage runs the group-commit bursts in workDir and returns
// the crash image they leave, with the number of statements committed.
func groupCommitImage(workDir string) (*image, int, error) {
	const (
		writers   = 4
		maxRounds = 40
		minStmts  = 24
	)
	db, err := engine.Open(workDir,
		engine.WithWAL(true), // synced: fsync latency is what piles commits up
		engine.WithPoolPages(poolPages))
	if err != nil {
		return nil, 0, err
	}
	defer db.Close() // releases handles only — the image predates it
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return nil, 0, err
	}

	tags := make(map[string]bool) // every statement's tag
	coalesced := false
	for round := 0; round < maxRounds && (!coalesced || len(tags) < minStmts); round++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			tag := fmt.Sprintf("s%d", round*writers+w)
			tags[tag] = true
			var sb strings.Builder
			sb.WriteString("INSERT INTO t VALUES ")
			for i := 0; i < groupRows; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, '%s')", (round*writers+w)*groupRows+i, tag)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[w] = db.Exec(sb.String())
			}()
		}
		close(start) // barrier: all writers fire together
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, 0, fmt.Errorf("torture: group burst round %d: %w", round, err)
		}
		commits, _, fsyncs, _ := db.WALGroupStats()
		coalesced = commits > fsyncs
	}
	if !coalesced {
		return nil, 0, errors.New("torture: group commit never coalesced ≥2 commits into one flush")
	}

	im, err := capture(workDir, "t.tbl.wal", poolPages)
	return im, len(tags), err
}

// groupRows is how many rows each group-commit statement inserts, all
// tagged with its name.
const groupRows = 3

// checkGroupCuts recovers im's log cut at each of points, in ascending
// order, and records in res every invariant RunGroupCommit states. It
// returns the offsets to replay: each that failed, and the one checked
// before it, against which a statement lost between them shows.
func checkGroupCuts(crashDir string, im *image, ends, points []int64, res *Result) []int64 {
	var failed []int64
	prev := make(map[string]int) // tags recovered at the previous (smaller) offset
	for i, off := range points {
		if res.full() {
			break
		}
		before := len(res.Violations)
		got := groupCut(crashDir, im, ends, off, res)
		for tag := range prev {
			if _, ok := got[tag]; !ok {
				res.violatef("offset %d: statement %q recovered at a smaller offset but lost here", off, tag)
			}
		}
		if len(res.Violations) > before {
			if i > 0 && (len(failed) == 0 || failed[len(failed)-1] != points[i-1]) {
				failed = append(failed, points[i-1])
			}
			failed = append(failed, off)
		}
		prev = got
	}
	return failed
}

// groupCut recovers im's log cut at off and checks the statements it
// holds: each one of the statements the log commits (tags s0, s1, …), each whole, and exactly
// as many as complete commit batches precede off. It returns the rows
// recovered per statement tag.
func groupCut(crashDir string, im *image, ends []int64, off int64, res *Result) map[string]int {
	got := make(map[string]int) // tag -> rows recovered
	state, err := reopenAt(crashDir, im, off, tableState)
	if err != nil {
		res.violatef("offset %d: %v", off, err)
		return got
	}
	for _, row := range strings.Split(state, "\n") {
		if _, tag, ok := strings.Cut(row, "|"); ok {
			got[tag]++
		}
	}
	for tag, n := range got {
		if k, err := strconv.Atoi(strings.TrimPrefix(tag, "s")); !strings.HasPrefix(tag, "s") || err != nil || k < 0 || k >= len(ends)-1 {
			res.violatef("offset %d: recovered unknown statement tag %q", off, tag)
		} else if n != groupRows {
			res.violatef("offset %d: statement %q torn: %d of %d rows", off, tag, n, groupRows)
		}
	}
	if k := expectedIndex(ends, off); len(got) != k {
		res.violatef("offset %d: %d statements recovered, want %d complete commit batches", off, len(got), k)
	}
	return got
}

// replayOffsets names the file of a saved replay that lists its offsets,
// one a line; every other file is the crash image's.
const replayOffsets = "offsets"

// saveReplay writes im's files, its log whole, and offs into dir.
func saveReplay(dir string, im *image, offs []int64) error {
	if err := im.materialize(dir, -1); err != nil {
		return err
	}
	var sb strings.Builder
	for _, off := range offs {
		fmt.Fprintln(&sb, off)
	}
	return os.WriteFile(filepath.Join(dir, replayOffsets), []byte(sb.String()), 0o644)
}

// ReplayGroupCommit rechecks a replay RunGroupCommit saved in dir: it
// cuts the saved log at each saved offset in turn, recovers in scratch,
// and reports the violations RunGroupCommit would, from the bytes alone.
func ReplayGroupCommit(dir, scratch string) (*Result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	im := &image{files: make(map[string][]byte), log: "t.tbl.wal", pages: poolPages}
	var offs []int64
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if e.Name() != replayOffsets {
			im.files[e.Name()] = data
			continue
		}
		for _, line := range strings.Fields(string(data)) {
			off, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("torture: replay offset %q: %w", line, err)
			}
			offs = append(offs, off)
		}
	}
	log, ok := im.files[im.log]
	if !ok || len(offs) == 0 {
		return nil, fmt.Errorf("torture: %s holds no %s or no offsets", dir, im.log)
	}
	_, ends, err := commitEnds(log, -1)
	if err != nil {
		return nil, err
	}
	res := &Result{Points: len(offs), Commits: len(ends) - 1, WALBytes: ends[len(ends)-1]}
	checkGroupCuts(filepath.Join(scratch, "crash"), im, ends, offs, res)
	return res, nil
}
