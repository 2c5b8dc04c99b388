package torture

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// maxPoints resolves the crash-point budget: the TORTURE_POINTS env knob
// wins (0 = unbounded full enumeration), then -short gets a small
// sample, and the default exercises the acceptance floor of ≥1000
// points.
func maxPoints(t *testing.T, def int) int {
	t.Helper()
	if s := os.Getenv("TORTURE_POINTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			t.Fatalf("TORTURE_POINTS=%q is not a non-negative integer", s)
		}
		return n
	}
	if testing.Short() {
		return def / 5
	}
	return def
}

// TestCrash runs every engine crash driver. Each crashes the WAL-enabled
// engine its own way and requires recovery to land on an allowed state
// every time. Enumeration and the two sweeps run a seeded statement
// stream held to an in-memory model, and the model says what each crash
// may recover:
//
//   - Enumeration/seed=N truncates seed N's log at every offset
//     crashPoints enumerates, and recovery equals the model after the
//     last whole batch.
//   - CountSnapshotAtomicity kills a count-snapshot save — of a snapshot
//     that fits the pool and of one that does not — and recovery is
//     exactly snapshot A or snapshot B, never a torn mix, so the delay
//     quote stays one of the two acknowledged prices.
//   - FaultSweep tears each commit of seed 1's stream once through the
//     live wal.append failpoint, and recovery lands on the previous
//     commit.
//   - GroupCommitCrashEnumeration crashes inside coalesced group-commit
//     flushes: a crash anywhere in the group recovers a committed prefix
//     per participating commit, whole statements only, counted exactly
//     by the complete commit batches before the crash point.
//   - GroupFlushFaultSweep fails the group leader's flush (after the
//     write, before the fsync) at every commit of seed 1's stream: the
//     statement fails wrapping storage.ErrIO — the signal the shield
//     latches degraded mode on — and recovery lands on the prior commit
//     or, since the bytes did reach the file, the ambiguous commit
//     itself.
func TestCrash(t *testing.T) {
	atLeast := func(n int) func(int) int { return func(int) int { return n } }
	enumerated := func(b int) int {
		if b == 0 || b >= 1000 {
			return 1000
		}
		return b / 2
	}
	// leg runs one driver. budget is the default crash-point budget, and
	// floor the fewest points a run under budget b must cover. A sweep has
	// neither: it must kill every commit once.
	leg := func(t *testing.T, run func(string, Config) (*Result, error), budget int, floor func(b int) int) {
		cfg := Config{Logf: t.Logf}
		if floor != nil {
			cfg.MaxPoints = maxPoints(t, budget)
		}
		res, err := run(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("crash points exercised: %d (workload: %d commits, %d log bytes)",
			res.Points, res.Commits, res.WALBytes)
		for _, v := range res.Violations {
			t.Errorf("invariant violation: %s", v)
		}
		if res.Replay != "" {
			// Kept beside the test's sources, as a fuzz failure is.
			dst := filepath.Join("testdata", "replay", strings.ReplaceAll(t.Name(), "/", "_"))
			if err := copyDir(dst, res.Replay); err != nil {
				t.Fatal(err)
			}
			t.Errorf("crash image and failing offsets saved in %s; recheck with go test -run TestReplaySavedGroupCommits ./internal/torture", dst)
		}
		switch {
		case floor == nil && res.Points != res.Commits:
			t.Errorf("swept %d of %d commits", res.Points, res.Commits)
		case floor != nil && res.Points < floor(cfg.MaxPoints):
			t.Errorf("only %d crash points enumerated with budget %d, want >= %d",
				res.Points, cfg.MaxPoints, floor(cfg.MaxPoints))
		}
	}
	t.Run("Enumeration", func(t *testing.T) {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				leg(t, seeded(Run, seed), 1100, enumerated)
			})
		}
	})
	t.Run("CountSnapshotAtomicity", func(t *testing.T) {
		leg(t, RunCountSnapshot, 600, atLeast(50))
	})
	t.Run("FaultSweep", func(t *testing.T) {
		leg(t, seeded(RunFaultSweep, 1), 0, nil)
	})
	t.Run("GroupCommitCrashEnumeration", func(t *testing.T) {
		leg(t, RunGroupCommit, 600, atLeast(50))
	})
	t.Run("GroupFlushFaultSweep", func(t *testing.T) {
		leg(t, seeded(RunGroupFlushFault, 1), 0, nil)
	})
}

// seeded binds a stream driver to one seed.
func seeded(run func(string, Config, uint64) (*Result, error), seed uint64) func(string, Config) (*Result, error) {
	return func(dir string, cfg Config) (*Result, error) { return run(dir, cfg, seed) }
}

// TestStreamReplaysByteForByte: a seed is the whole of a stream: drawn
// and run twice, it leaves the same log bytes, so a failing seed
// reproduces exactly.
func TestStreamReplaysByteForByte(t *testing.T) {
	const seed, n = 7, 60
	var logs [2][]byte
	for i := range logs {
		im, _, stmtErr, err := runStream(filepath.Join(t.TempDir(), "run"), drawStream(seed, n), nil)
		if err == nil {
			err = stmtErr
		}
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = im.files[im.log]
	}
	if len(logs[0]) == 0 || !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("seed %d left logs of %d and %d bytes, want the same bytes", seed, len(logs[0]), len(logs[1]))
	}
}

// TestGroupCommitReplayRoundTrip: a saved group-commit replay is the
// crash image and its offsets, and ReplayGroupCommit rechecks recovery at
// each from those bytes alone.
func TestGroupCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	im, stmts, err := groupCommitImage(filepath.Join(dir, "work"))
	if err != nil {
		t.Fatal(err)
	}
	_, ends, err := commitEnds(im.files[im.log], stmts)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{ends[1] - 1, ends[1], ends[stmts/2] + 5, ends[stmts]}
	if err := saveReplay(filepath.Join(dir, "replay"), im, offs); err != nil {
		t.Fatal(err)
	}
	res, err := ReplayGroupCommit(filepath.Join(dir, "replay"), filepath.Join(dir, "scratch"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != len(offs) || res.Commits != stmts || len(res.Violations) != 0 {
		t.Fatalf("replay of %d offsets over %d commits: %+v", len(offs), stmts, res)
	}
}

// TestReplaySavedGroupCommits rechecks every replay a failed group-commit
// run saved under testdata/replay (see TestCrash).
func TestReplaySavedGroupCommits(t *testing.T) {
	dirs, _ := filepath.Glob(filepath.Join("testdata", "replay", "*"))
	if len(dirs) == 0 {
		t.Skip("no saved replays")
	}
	for _, dir := range dirs {
		res, err := ReplayGroupCommit(dir, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %s", dir, v)
		}
	}
}

// copyDir replaces dst with a copy of the files in src.
func copyDir(dst, src string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
