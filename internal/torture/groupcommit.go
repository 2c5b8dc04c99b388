package torture

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// RunGroupCommit tortures the group-commit path: concurrent bursts of
// multi-row INSERT statements commit through a wide accumulation window
// against a synced WAL (fsync latency piles committers up), so flushes
// carry several coalesced commit batches. The captured log is then
// truncated at every enumerated offset — including offsets strictly
// inside a coalesced group write — and recovery must expose a committed
// prefix per participating commit:
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
func RunGroupCommit(scratch string, cfg Config) (*Result, error) {
	cfg.fill()
	const (
		writers   = 4
		rowsEach  = 3
		maxRounds = 40
		minStmts  = 24
	)
	workDir := filepath.Join(scratch, "work")
	db, err := engine.Open(workDir,
		engine.WithWAL(true), // synced: fsync latency is what piles commits up
		engine.WithPoolPages(poolPages),
		engine.WithWALGroupWindow(2*time.Millisecond))
	if err != nil {
		return nil, err
	}
	defer db.Close() // releases handles only — the image predates it
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return nil, err
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
			for i := 0; i < rowsEach; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, '%s')", (round*writers+w)*rowsEach+i, tag)
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
			return nil, fmt.Errorf("torture: group burst round %d: %w", round, err)
		}
		commits, _, fsyncs, _ := db.WALGroupStats()
		coalesced = commits > fsyncs
	}
	if !coalesced {
		return nil, errors.New("torture: group commit never coalesced ≥2 commits into one flush")
	}

	stmts := len(tags)
	im, err := capture(workDir, "t.tbl.wal", poolPages)
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

	crashDir := filepath.Join(scratch, "crash")
	prev := make(map[string]int) // tags recovered at the previous (smaller) offset
	for _, off := range points {
		if res.full() {
			break
		}
		state, err := reopenAt(crashDir, im, off, tableState)
		if err != nil {
			res.violatef("offset %d: %v", off, err)
			continue
		}
		got := make(map[string]int) // tag -> rows recovered
		for _, row := range strings.Split(state, "\n") {
			if _, tag, ok := strings.Cut(row, "|"); ok {
				got[tag]++
			}
		}
		for tag, n := range got {
			if !tags[tag] {
				res.violatef("offset %d: recovered unknown statement tag %q", off, tag)
			} else if n != rowsEach {
				res.violatef("offset %d: statement %q torn: %d of %d rows", off, tag, n, rowsEach)
			}
		}
		if k := expectedIndex(ends, off); len(got) != k {
			res.violatef("offset %d: %d statements recovered, want %d complete commit batches", off, len(got), k)
		}
		for tag := range prev {
			if _, ok := got[tag]; !ok {
				res.violatef("offset %d: statement %q recovered at a smaller offset but lost here", off, tag)
			}
		}
		prev = got
	}
	if len(prev) != stmts && !res.full() && len(points) > 0 && points[len(points)-1] == ends[len(ends)-1] {
		res.violatef("full log recovered %d of %d statements", len(prev), stmts)
	}
	return res, nil
}
