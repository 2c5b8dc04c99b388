package delaydefense

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md §5.
// The experiment benchmarks run the same code as cmd/extractbench at a
// reduced scale per iteration; run the command at -scale 1 for the
// paper-scale numbers recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/delay"
	"repro/internal/experiments"
	"repro/internal/ostree"
	"repro/internal/trace"
)

func benchCalgaryParams() experiments.CalgaryParams {
	p := experiments.DefaultCalgaryParams()
	p.Scale = 8
	return p
}

func BenchmarkFig1CalgaryDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(benchCalgaryParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SyntheticScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table1(benchCalgaryParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2CapSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table2(benchCalgaryParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3CalgaryDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table3(benchCalgaryParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2BoxOfficeAnnual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(experiments.DefaultBoxOfficeParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3BoxOfficeWeek1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(experiments.DefaultBoxOfficeParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4BoxOfficeDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table4(experiments.DefaultBoxOfficeParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDynamicParams() experiments.DynamicParams {
	p := experiments.DefaultDynamicParams()
	p.N = 20_000
	return p
}

func BenchmarkFig4MedianByUpdate(b *testing.B) {
	// Figs 4–6 come from one sweep; each gets its own benchmark so the
	// per-figure cost is visible, at the price of redundant sweeps.
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := experiments.DynamicSweep(benchDynamicParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5AdversaryByUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := experiments.DynamicSweep(benchDynamicParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Staleness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := experiments.DynamicSweep(benchDynamicParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := experiments.DefaultOverheadParams(b.TempDir())
		p.Rows = 3000
		p.Queries = 30
		p.IOCost = 100 * time.Microsecond
		b.StartTimer()
		if _, _, err := experiments.Table5(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSybilAnalysis(b *testing.B) {
	p := experiments.DefaultSybilParams()
	p.Scale = 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SybilAnalysis(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorefrontCoverage(b *testing.B) {
	p := experiments.DefaultStorefrontParams()
	p.N /= 8
	p.Queries /= 8
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StorefrontCoverage(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelValidation(b *testing.B) {
	p := experiments.DefaultModelParams()
	p.N = 5000
	p.Requests = 100_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ModelValidation(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// naiveDecayed is the strawman §2.3 warns against: discount every count
// at each access.
type naiveDecayed struct {
	decay  float64
	counts map[uint64]float64
}

func (n *naiveDecayed) observe(id uint64) {
	inv := 1 / n.decay
	for k, v := range n.counts {
		n.counts[k] = v * inv
	}
	n.counts[id]++
}

// BenchmarkAblationDecayInflation measures the paper's inflation trick...
func BenchmarkAblationDecayInflation(b *testing.B) {
	d, err := counters.NewDecayed(1.000001)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(uint64(i % 10000))
	}
}

// ...against the naive per-access rescan it replaces.
func BenchmarkAblationDecayNaiveRescan(b *testing.B) {
	n := &naiveDecayed{decay: 1.000001, counts: make(map[uint64]float64)}
	// Pre-populate so the rescan cost is realistic.
	for i := uint64(0); i < 10000; i++ {
		n.counts[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.observe(uint64(i % 10000))
	}
}

// BenchmarkAblationCountCacheWriteBehind measures count maintenance
// through the §4.4 write-behind cache...
func BenchmarkAblationCountCacheWriteBehind(b *testing.B) {
	store := counters.NewMapStore()
	cache, err := counters.NewCountCache(1024, store)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Add(uint64(i%4096), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ...against synchronous persistence of every count update.
func BenchmarkAblationCountCacheSynchronous(b *testing.B) {
	store := counters.NewMapStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % 4096)
		v, _, err := store.GetCount(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.PutCount(id, v+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRankTree measures O(log n) rank queries on the
// order-statistic index (ostree: a flat sorted array and a delta)...
func BenchmarkAblationRankTree(b *testing.B) {
	tr := ostree.New()
	for i := uint64(0); i < 50000; i++ {
		tr.Upsert(i, float64(i%997))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Rank(uint64(i % 50000))
	}
}

// ...against recomputing rank by sorting a snapshot of all counts.
func BenchmarkAblationRankFullSort(b *testing.B) {
	counts := make([]float64, 50000)
	for i := range counts {
		counts[i] = float64(i % 997)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % 50000
		snapshot := append([]float64(nil), counts...)
		sort.Sort(sort.Reverse(sort.Float64Slice(snapshot)))
		target := counts[id]
		_ = sort.SearchFloat64s(snapshot, target)
	}
}

// BenchmarkShieldQuery measures the full front-door path (parse, plan,
// index lookup, delay quote, count update) on a warm engine with a
// simulated clock so imposed delays cost nothing.
func BenchmarkShieldQuery(b *testing.B) {
	db := openBenchDB(b)
	queries := make([]string, 512)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, i%1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query("bench", queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShieldQueryParallel measures front-door throughput under
// concurrent clients.
func BenchmarkShieldQueryParallel(b *testing.B) {
	db := openBenchDB(b)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, i%1000)
			if _, _, err := db.Query("bench", q); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func openAdaptiveBenchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), Config{
		N: 1000, Alpha: 1, Beta: 2, Cap: 10 * time.Second,
		Clock:              benchClock{},
		AdaptiveDecayRates: []float64{1, 1.02, 1.05},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO items VALUES (%d, 'v')`, i)); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the adaptive selector past its 1,000-tuple warmup so quoting
	// happens in steady state.
	for i := 0; i < 1200; i++ {
		db.Query("warm", fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, i%50))
	}
	return db
}

// BenchmarkAdaptiveQuoteBatch prices a 1000-tuple extraction in one call:
// the gate pins the active adaptive policy once for the whole batch, so
// the rate-selection lock is taken once per 1000 tuples.
func BenchmarkAdaptiveQuoteBatch(b *testing.B) {
	db := openAdaptiveBenchDB(b)
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.QuoteExtraction(ids)
	}
}

// BenchmarkAdaptiveQuotePerTuple prices the same 1000 tuples one call at
// a time — each call re-resolves the active policy, the per-tuple lock
// churn the batch path eliminates. The gap against
// BenchmarkAdaptiveQuoteBatch is the win (normalize by the 1000:1 batch
// ratio when comparing per-op times).
func BenchmarkAdaptiveQuotePerTuple(b *testing.B) {
	db := openAdaptiveBenchDB(b)
	one := make([]uint64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := uint64(0); id < 1000; id++ {
			one[0] = id
			_ = db.QuoteExtraction(one)
		}
	}
}

// BenchmarkShieldQueryParallelScan measures front-door throughput for
// range scans returning 10/100/1000 tuples under concurrent clients —
// the workload the batch quote/observe path exists for. Before batching,
// every tuple took the tracker mutex twice, so these collapsed onto one
// lock.
func BenchmarkShieldQueryParallelScan(b *testing.B) {
	for _, tuples := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			db := openBenchDB(b)
			q := fmt.Sprintf(`SELECT * FROM items WHERE id < %d`, tuples)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, _, err := db.Query("bench", q); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShieldQueryDetect compares the front-door scan path with the
// extraction detector off and on (`make bench-detect`). detect=off is
// the zero-overhead baseline (no detector is constructed — a single nil
// check per query); detect=on adds one sharded sketch update per query:
// two O(1) sketch folds per tuple plus one shard lock round-trip. The
// grace threshold is set high enough that the bench principal never
// escalates, so the numbers isolate observation cost from surcharges.
func BenchmarkShieldQueryDetect(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run("tuples=1000/detect="+mode, func(b *testing.B) {
			db := openBenchDBCfg(b, func(cfg *Config) {
				if mode == "on" {
					cfg.Detect = &DetectConfig{
						Policy: EscalationPolicy{Grace: 1.0, Cap: 64},
					}
				}
			})
			q := `SELECT * FROM items WHERE id < 1000`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Query("bench", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptiveObserveBatch is the regression benchmark for the
// adaptive observe path: a 100-tuple scan is charged as ONE entry into
// the selector's serialization section (verified below), where the
// pre-batching code took the lock once per tuple. ns/op creeping toward
// the per-tuple era is the regression signal.
func BenchmarkAdaptiveObserveBatch(b *testing.B) {
	db := openAdaptiveBenchDB(b)
	base := db.Shield().ObserveLockAcquisitions()
	q := `SELECT * FROM items WHERE id < 100`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query("bench", q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := db.Shield().ObserveLockAcquisitions() - base; got != int64(b.N) {
		b.Fatalf("%d queries took %d observe lock acquisitions; want one per query", b.N, got)
	}
}

// BenchmarkEngineSelect measures the bare engine point lookup for
// comparison with BenchmarkShieldQuery — the per-query cost of the
// defense is the difference.
func BenchmarkEngineSelect(b *testing.B) {
	db := openBenchDB(b)
	queries := make([]string, 512)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, i%1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func openBenchDB(b *testing.B) *DB {
	return openBenchDBCfg(b, nil)
}

func openBenchDBCfg(b *testing.B, mutate func(*Config)) *DB {
	b.Helper()
	cfg := Config{
		N: 1000, Alpha: 1, Beta: 2, Cap: 10 * time.Second,
		Clock: benchClock{},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	db, err := Open(b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < 1000; lo += 250 {
		stmt := "INSERT INTO items VALUES "
		for i := lo; i < lo+250; i++ {
			if i > lo {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'value-%d')", i, i)
		}
		if _, err := db.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// benchClock never sleeps, so benchmarks measure mechanism cost only.
type benchClock struct{}

func (benchClock) Now() time.Time                                      { return time.Unix(0, 0) }
func (benchClock) Sleep(_ time.Duration)                               {}
func (benchClock) SleepCtx(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// Replay benchmark: the §2.3 learning path at trace speed.
func BenchmarkTraceReplayLearning(b *testing.B) {
	tr, err := trace.Synthetic("bench", 5000, 100000, 1.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := delay.PopularityConfig{N: 5000, Alpha: 1.5, Beta: 2, Cap: 10 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReplayPopularity(tr, 1.000001, cfg, false); err != nil {
			b.Fatal(err)
		}
	}
}
