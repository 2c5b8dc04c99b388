package torture

import (
	"os"
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
