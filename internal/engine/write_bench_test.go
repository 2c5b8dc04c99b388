package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchMixed drives a mixed point workload against a synced-WAL table:
// each operation is an in-place UPDATE by primary key with probability
// writeFrac%, otherwise a point SELECT. Statements are pregenerated and
// goroutine/GOMAXPROCS conventions follow BenchmarkEnginePointQuery.
func benchMixed(b *testing.B, writeFrac, g int) {
	b.Helper()
	const rows = 2000
	db := benchEngine(b, rows, WithWAL(true))
	if _, err := db.Exec(`SELECT COUNT(*) FROM wide`); err != nil {
		b.Fatal(err)
	}
	reads := make([]string, rows)
	writes := make([]string, rows)
	for i := range reads {
		reads[i] = fmt.Sprintf(`SELECT grp FROM wide WHERE id = %d`, i)
		writes[i] = fmt.Sprintf(`UPDATE wide SET grp = %d WHERE id = %d`, i%7, i)
	}
	procs := min(g, runtime.NumCPU())
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var seq atomic.Int64
	b.SetParallelism((g + procs - 1) / procs)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(seq.Add(1)) * 97
		i := 0
		for pb.Next() {
			n := base + i*13
			i++
			var q string
			if n%100 < writeFrac {
				q = writes[n%rows]
			} else {
				q = reads[n%rows]
			}
			if _, err := db.Exec(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEngineMixed measures mixed read/write throughput on the
// concurrent write path (per-page latches, snapshot reads, group-commit
// WAL) across write fractions and client counts. Writers touching
// different pages proceed in parallel and share fsyncs through the
// group-commit window; readers never block behind them.
func BenchmarkEngineMixed(b *testing.B) {
	for _, w := range []int{10, 50, 90} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for _, g := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
					benchMixed(b, w, g)
				})
			}
		})
	}
}

// BenchmarkWALCommit isolates the WAL commit path: g goroutines issue
// single-row in-place UPDATEs against a synced log, through the group
// commit every engine runs. At g=1 every commit writes and fsyncs alone;
// at g=8 concurrent commits coalesce into shared flushes. The
// fsyncs/commit metric is measured from the WAL's own counters; at g=8
// it must drop below 0.5 — the whole point of the leader/follower
// protocol — and the benchmark fails if it does not.
func BenchmarkWALCommit(b *testing.B) {
	for _, g := range []int{1, 8} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			const rows = 512
			db := benchEngine(b, rows, WithWAL(true))
			if _, err := db.Exec(`SELECT COUNT(*) FROM wide`); err != nil {
				b.Fatal(err)
			}
			writes := make([]string, rows)
			for i := range writes {
				writes[i] = fmt.Sprintf(`UPDATE wide SET grp = %d WHERE id = %d`, i%7, i)
			}
			procs := min(g, runtime.NumCPU())
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			var seq atomic.Int64
			b.SetParallelism((g + procs - 1) / procs)
			c0, _, f0, _ := db.WALGroupStats()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := int(seq.Add(1)) * 97
				i := 0
				for pb.Next() {
					q := writes[(base+i*13)%rows]
					i++
					if _, err := db.Exec(q); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			commits, _, fsyncs, wait := db.WALGroupStats()
			commits -= c0
			fsyncs -= f0
			if commits > 0 {
				ratio := float64(fsyncs) / float64(commits)
				b.ReportMetric(ratio, "fsyncs/commit")
				b.ReportMetric(wait/float64(commits), "window-wait-s/commit")
				if g == 8 && commits >= 200 && ratio >= 0.5 {
					b.Fatalf("grouped commit at g=8: %.3f fsyncs/commit (%d fsyncs / %d commits), want < 0.5",
						ratio, fsyncs, commits)
				}
			}
		})
	}
}
