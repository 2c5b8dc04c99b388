package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sqlmini"
)

// benchEngine opens a database with a wide table of rows records. The
// returned cleanup closes it.
func benchEngine(b *testing.B, rows int, opts ...Option) *Database {
	b.Helper()
	db, err := Open(b.TempDir(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE wide (id INT PRIMARY KEY, grp INT, pad TEXT)`); err != nil {
		b.Fatal(err)
	}
	stmt := ""
	for i := 0; i < rows; i++ {
		if stmt == "" {
			stmt = `INSERT INTO wide VALUES `
		} else {
			stmt += ", "
		}
		stmt += fmt.Sprintf(`(%d, %d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-%d')`, i, i%7, i)
		if (i+1)%200 == 0 || i == rows-1 {
			if _, err := db.Exec(stmt); err != nil {
				b.Fatal(err)
			}
			stmt = ""
		}
	}
	return db
}

// BenchmarkEnginePointQuery measures primary-key point SELECT latency
// with g client goroutines issuing statements concurrently. Reads share
// the table lock, so added clients should not queue on the read path.
// GOMAXPROCS is raised with g but capped at the hardware parallelism:
// beyond NumCPU extra OS threads cannot run queries in parallel, they
// can only thrash the scheduler and stretch GC stop-the-world phases —
// which measures the runtime, not the engine. The query strings are
// pregenerated for the same reason (fmt is not the system under test).
func BenchmarkEnginePointQuery(b *testing.B) {
	queries := make([]string, 2000)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT grp FROM wide WHERE id = %d`, i)
	}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			db := benchEngine(b, 2000)
			// Warm the pool.
			if _, err := db.Exec(`SELECT COUNT(*) FROM wide`); err != nil {
				b.Fatal(err)
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
					q := queries[(base+i*13)%2000]
					i++
					res, err := db.Exec(q)
					if err != nil {
						b.Error(err)
						return
					}
					if len(res.Rows) != 1 {
						b.Errorf("%s: %d rows", q, len(res.Rows))
						return
					}
				}
			})
		})
	}
}

// BenchmarkEnginePointQueryPlanCache isolates what the plan cache buys a
// repeated point-query shape: with the cache on (Exec), every statement
// after the first binds a cached template and skips the lexer, parser,
// and name resolution; with the cache off (sqlmini.Parse + ExecStmt),
// each pays the full front end. The hit-counter assertions keep the
// benchmark honest — if the cache stops hitting, or the off arm reaches
// it, the run fails rather than quietly measuring one path twice.
func BenchmarkEnginePointQueryPlanCache(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "cache=on"
		exec := func(db *Database, q string) (*Result, error) { return db.Exec(q) }
		if !on {
			name = "cache=off"
			exec = func(db *Database, q string) (*Result, error) {
				stmt, err := sqlmini.Parse(q)
				if err != nil {
					return nil, err
				}
				return db.ExecStmt(stmt, nil)
			}
		}
		b.Run(name, func(b *testing.B) {
			db := benchEngine(b, 2000)
			if _, err := db.Exec(`SELECT COUNT(*) FROM wide`); err != nil {
				b.Fatal(err)
			}
			h0, m0, _, _ := db.PlanCacheStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := fmt.Sprintf(`SELECT grp FROM wide WHERE id = %d`, (i*13)%2000)
				res, err := exec(db, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatalf("%s: %d rows", q, len(res.Rows))
				}
			}
			b.StopTimer()
			hits, misses, _, _ := db.PlanCacheStats()
			if on && hits-h0 < int64(b.N-1) {
				b.Fatalf("cache on: %d hits over %d queries", hits-h0, b.N)
			}
			if !on && (hits != h0 || misses != m0) {
				b.Fatalf("cache off: stats moved %d/%d, want 0/0", hits-h0, misses-m0)
			}
		})
	}
}

// BenchmarkEngineScan measures warm full-scan throughput with the
// parallel executor at w scan workers. Pages are pool-resident, so this
// is the CPU-bound decode/filter path; worker scaling tracks available
// cores.
func BenchmarkEngineScan(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("g=%d", w), func(b *testing.B) {
			db := benchEngine(b, 4000, withScanWorkers(w))
			if _, err := db.Exec(`SELECT COUNT(*) FROM wide`); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(`SELECT COUNT(*), SUM(id) FROM wide WHERE grp != 3`)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatal("no aggregate row")
				}
			}
		})
	}
}

// BenchmarkEngineScanColdIO measures cold full scans under a modeled
// 2004-era I/O latency (a fault latency rule on every page read and
// write), with a pool smaller than the heap so every scan pays real
// misses. The parallel executor's workers miss on different pool shards
// and overlap the modeled reads — the end-to-end win of the striped pool
// + latch-free page loads + the chunked scan executor, visible even on a
// single-core host.
func BenchmarkEngineScanColdIO(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("g=%d", w), func(b *testing.B) {
			db := benchEngine(b, 1500, withScanWorkers(w), WithPoolPages(16))
			// Every physical page read and write from here on sleeps:
			// loading the table above stays fast.
			fault.Enable(fault.NewRegistry(1).
				Add(fault.Rule{Site: fault.PagerRead, Kind: fault.Latency, Latency: 100 * time.Microsecond}).
				Add(fault.Rule{Site: fault.PagerWrite, Kind: fault.Latency, Latency: 100 * time.Microsecond}))
			b.Cleanup(fault.Disable)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(`SELECT COUNT(*) FROM wide`)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows[0][0].Int != 1500 {
					b.Fatalf("count = %v", res.Rows[0][0])
				}
			}
		})
	}
}

// BenchmarkEngineRange times primary-key range reads of 1,000 keys on a
// heap 28 times the pool, so most of a range's pages miss: count is
// COUNT(*), a key-only statement the primary index answers without a
// page; rows is SELECT * over the same ranges, which reads and decodes
// every row, resolving its page.
func BenchmarkEngineRange(b *testing.B) {
	const rows, span = 20000, 1000
	db := benchEngine(b, rows, WithPoolPages(16))
	for _, c := range []struct{ name, sel string }{{"count", "COUNT(*)"}, {"rows", "*"}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := (i * 7919) % (rows - span)
				res, err := db.Exec(fmt.Sprintf(`SELECT %s FROM wide WHERE id BETWEEN %d AND %d`, c.sel, lo, lo+span-1))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Keys) != span {
					b.Fatalf("%s: %d keys, want %d", c.sel, len(res.Keys), span)
				}
			}
		})
	}
}

// BenchmarkEngineKeyTopN times the TopN the latency ledger's cluster_mix
// sends, SELECT * over a key range ORDER BY id LIMIT 20, at three range
// widths on a 20,000-row table. The key-order walk reads the 20 rows it
// returns and stops, so the widths cost about the same; a plan that
// materializes and sorts the range grows with it (the parent read
// 270 times span=100 at span=19000). bench.sh holds span=19000 to at
// most twice span=100.
func BenchmarkEngineKeyTopN(b *testing.B) {
	const rows = 20000
	db := benchEngine(b, rows)
	for _, span := range []int{100, 1000, 19000} {
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := (i * 7919) % (rows - span)
				res, err := db.Exec(fmt.Sprintf(`SELECT * FROM wide WHERE id BETWEEN %d AND %d ORDER BY id LIMIT 20`, lo, lo+span-1))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Keys) != 20 || res.Keys[0] != uint64(lo) {
					b.Fatalf("span %d from %d: keys %v", span, lo, res.Keys)
				}
			}
		})
	}
}

// BenchmarkEngineMixedReadWrite measures point reads competing with a
// writer goroutine issuing UPDATEs — the reader/writer table lock lets
// reads share while writes serialize.
func BenchmarkEngineMixedReadWrite(b *testing.B) {
	db := benchEngine(b, 2000)
	if _, err := db.Exec(`SELECT COUNT(*) FROM wide`); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(fmt.Sprintf(`UPDATE wide SET grp = %d WHERE id = %d`, i%7, i%2000)); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf(`SELECT grp FROM wide WHERE id = %d`, (i*13)%2000)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
