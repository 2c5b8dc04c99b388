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

func report(t *testing.T, res *Result) {
	t.Helper()
	t.Logf("crash points exercised: %d (workload: %d commits, %d log bytes)",
		res.Points, res.Statements, res.WALBytes)
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestCrashEnumeration is the tentpole check: truncate-and-reopen at
// every enumerated byte offset of the commit log, with recovery landing
// exactly on a committed shadow state every time.
func TestCrashEnumeration(t *testing.T) {
	budget := maxPoints(t, 1100)
	res, err := Run(t.TempDir(), Config{MaxPoints: budget, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
	if want := 1000; budget == 0 || budget >= want {
		if res.Points < want {
			t.Errorf("only %d crash points enumerated, want >= %d", res.Points, want)
		}
	} else if res.Points < budget/2 {
		t.Errorf("only %d crash points enumerated with budget %d", res.Points, budget)
	}
}

// TestCountSnapshotAtomicity: a crash anywhere inside a count-snapshot
// save — of a snapshot that fits the pool and of one that does not —
// recovers exactly snapshot A or snapshot B, never a torn mix, so the
// delay quote stays one of the two acknowledged prices.
func TestCountSnapshotAtomicity(t *testing.T) {
	res, err := RunCountSnapshot(t.TempDir(), Config{MaxPoints: maxPoints(t, 600), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
	if res.Points < 50 {
		t.Errorf("only %d crash points enumerated", res.Points)
	}
}

// TestFaultSweep drives the same invariant through the live wal.append
// failpoint: each commit of the workload is torn once, in-process, and
// recovery lands on the previous commit's state.
func TestFaultSweep(t *testing.T) {
	res, err := RunFaultSweep(t.TempDir(), Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
	if res.Points != res.Statements {
		t.Errorf("swept %d of %d commits", res.Points, res.Statements)
	}
}

// TestGroupCommitCrashEnumeration tortures crash points inside coalesced
// group-commit flushes: concurrent committers share one write + fsync,
// and a crash anywhere in the group must recover a committed prefix per
// participating commit — whole statements only, counted exactly by the
// complete commit batches before the crash point.
func TestGroupCommitCrashEnumeration(t *testing.T) {
	res, err := RunGroupCommit(t.TempDir(), Config{MaxPoints: maxPoints(t, 600), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
	if res.Points < 50 {
		t.Errorf("only %d crash points enumerated", res.Points)
	}
}

// TestGroupFlushFaultSweep injects an I/O error in the group leader's
// flush (after the write, before the fsync) at every commit of the
// workload: the statement fails wrapping storage.ErrIO — the signal the
// shield latches degraded mode on — and recovery lands on the prior
// commit or, since the bytes did reach the file, the ambiguous commit
// itself; never a torn state.
func TestGroupFlushFaultSweep(t *testing.T) {
	res, err := RunGroupFlushFault(t.TempDir(), Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
	if res.Points != res.Statements {
		t.Errorf("swept %d of %d commits", res.Points, res.Statements)
	}
}
