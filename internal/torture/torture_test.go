package torture

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
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
// engine its own way and requires recovery to land on an allowed shadow
// state every time:
//
//   - Enumeration truncates the commit log at every enumerated byte
//     offset, and recovery lands exactly on the last committed state.
//   - CountSnapshotAtomicity kills a count-snapshot save — of a snapshot
//     that fits the pool and of one that does not — and recovery is
//     exactly snapshot A or snapshot B, never a torn mix, so the delay
//     quote stays one of the two acknowledged prices.
//   - FaultSweep tears each commit of the workload once through the live
//     wal.append failpoint, and recovery lands on the previous commit.
//   - GroupCommitCrashEnumeration crashes inside coalesced group-commit
//     flushes: a crash anywhere in the group recovers a committed prefix
//     per participating commit, whole statements only, counted exactly
//     by the complete commit batches before the crash point.
//   - Stream/seed=N draws a statement stream from seed N, checks every
//     statement against an in-memory model, and cuts the log at every
//     batch boundary and inside its image and patch records: recovery
//     equals the model after the last whole batch.
//   - GroupFlushFaultSweep fails the group leader's flush (after the
//     write, before the fsync) at every commit: the statement fails
//     wrapping storage.ErrIO — the signal the shield latches degraded
//     mode on — and recovery lands on the prior commit or, since the
//     bytes did reach the file, the ambiguous commit itself.
func TestCrash(t *testing.T) {
	atLeast := func(n int) func(int) int { return func(int) int { return n } }
	for _, tc := range []struct {
		name string
		run  func(string, Config) (*Result, error)
		// budget is the default crash-point budget, and floor the fewest
		// points a run under budget b must cover. A sweep has neither: it
		// must kill every commit once.
		budget int
		floor  func(b int) int
	}{
		{"Enumeration", Run, 1100, func(b int) int {
			if b == 0 || b >= 1000 {
				return 1000
			}
			return b / 2
		}},
		{"CountSnapshotAtomicity", RunCountSnapshot, 600, atLeast(50)},
		{"FaultSweep", RunFaultSweep, 0, nil},
		{"GroupCommitCrashEnumeration", RunGroupCommit, 600, atLeast(50)},
		{"GroupFlushFaultSweep", RunGroupFlushFault, 0, nil},
		{"Stream/seed=1", stream(1), 400, atLeast(50)},
		{"Stream/seed=2", stream(2), 400, atLeast(50)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Logf: t.Logf}
			if tc.floor != nil {
				cfg.MaxPoints = maxPoints(t, tc.budget)
			}
			res, err := tc.run(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("crash points exercised: %d (workload: %d commits, %d log bytes)",
				res.Points, res.Statements, res.WALBytes)
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %s", v)
			}
			switch {
			case tc.floor == nil && res.Points != res.Statements:
				t.Errorf("swept %d of %d commits", res.Points, res.Statements)
			case tc.floor != nil && res.Points < tc.floor(cfg.MaxPoints):
				t.Errorf("only %d crash points enumerated with budget %d, want >= %d",
					res.Points, cfg.MaxPoints, tc.floor(cfg.MaxPoints))
			}
		})
	}
}

// stream runs RunStream under one seed.
func stream(seed uint64) func(string, Config) (*Result, error) {
	return func(dir string, cfg Config) (*Result, error) { return RunStream(dir, cfg, seed) }
}

// TestStreamReplaysByteForByte: a seed is the whole of a stream: drawn
// and run twice, it leaves the same log bytes, so a failing seed
// reproduces exactly.
func TestStreamReplaysByteForByte(t *testing.T) {
	const seed, n = 7, 60
	var logs [2][]byte
	for i := range logs {
		im, _, stmtErr, err := runStream(filepath.Join(t.TempDir(), "run"), drawStream(seed, n))
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
