package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/ostree"
)

// AblationParams configures the design-choice ablations of DESIGN.md §5.
type AblationParams struct {
	// IDs is the distinct-tuple universe size for the counting ablations.
	IDs int
	// Ops is the operation count per timed measurement.
	Ops int
	// Dir hosts the database for the count-persistence ablation.
	Dir string
	// IOCost is the synthetic per-page I/O cost for that ablation.
	IOCost time.Duration
	Seed   int64
}

// DefaultAblationParams returns a configuration that finishes in a couple
// of seconds.
func DefaultAblationParams(dir string) AblationParams {
	return AblationParams{IDs: 10_000, Ops: 50_000, Dir: dir, IOCost: 20 * time.Microsecond, Seed: 3}
}

// Ablations measures each kept design choice against its strawman and
// returns one comparison table. These are the same comparisons as the
// BenchmarkAblation* benchmarks, packaged as a printable experiment.
func Ablations(p AblationParams) (*Table, error) {
	if p.IDs < 1 || p.Ops < 1 {
		return nil, fmt.Errorf("experiments: bad ablation params %+v", p)
	}
	t := &Table{
		Title:  "Ablations: kept design choice vs. strawman (per-operation cost)",
		Header: []string{"Design choice", "Kept", "Strawman", "Speedup"},
	}

	row := func(name string, kept, straw time.Duration) {
		speedup := "-"
		if kept > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(straw)/float64(kept))
		}
		t.Rows = append(t.Rows, []string{name, perOp(kept), perOp(straw), speedup})
	}

	// 1. Decay via the inflation trick vs. rescanning every count.
	kept, err := timeDecayInflation(p)
	if err != nil {
		return nil, err
	}
	straw := timeDecayNaive(p)
	row("decayed counts: inflation trick vs per-access rescan", kept, straw)

	// 2. Rank via the order-statistic index (ostree) vs. full sort per query.
	kept = timeRankTree(p)
	straw = timeRankSort(p)
	row("rank lookup: order-statistic index vs full sort", kept, straw)

	// 3. Count persistence: write-behind cache vs. synchronous puts,
	// both over a count table in a real database paying page I/O.
	kept, straw, err = timeCountPersistence(p)
	if err != nil {
		return nil, err
	}
	row("count persistence: write-behind cache vs synchronous", kept, straw)

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d distinct ids, measured over %d ops (fewer for quadratic strawmen), synthetic I/O %v/page",
			p.IDs, p.Ops, p.IOCost))
	return t, nil
}

func perOp(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2f ms/op", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2f µs/op", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%d ns/op", d.Nanoseconds())
	}
}

func timeDecayInflation(p AblationParams) (time.Duration, error) {
	d, err := counters.NewDecayed(1.000001)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < p.Ops; i++ {
		d.Observe(uint64(i % p.IDs))
	}
	return time.Since(start) / time.Duration(p.Ops), nil
}

func timeDecayNaive(p AblationParams) time.Duration {
	counts := make(map[uint64]float64, p.IDs)
	for i := 0; i < p.IDs; i++ {
		counts[uint64(i)] = 1
	}
	// The rescan is O(ids) per op; cap the strawman's op count so the
	// experiment stays fast, then report per-op cost.
	ops := p.Ops / 100
	if ops < 10 {
		ops = 10
	}
	inv := 1 / 1.000001
	start := time.Now()
	for i := 0; i < ops; i++ {
		for k, v := range counts {
			counts[k] = v * inv
		}
		counts[uint64(i%p.IDs)]++
	}
	return time.Since(start) / time.Duration(ops)
}

func timeRankTree(p AblationParams) time.Duration {
	tr := ostree.New()
	for i := 0; i < p.IDs; i++ {
		tr.Upsert(uint64(i), float64(i%997))
	}
	start := time.Now()
	for i := 0; i < p.Ops; i++ {
		tr.Rank(uint64(i % p.IDs))
	}
	return time.Since(start) / time.Duration(p.Ops)
}

func timeRankSort(p AblationParams) time.Duration {
	counts := make([]float64, p.IDs)
	for i := range counts {
		counts[i] = float64(i % 997)
	}
	ops := p.Ops / 1000
	if ops < 5 {
		ops = 5
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		snapshot := append([]float64(nil), counts...)
		sort.Sort(sort.Reverse(sort.Float64Slice(snapshot)))
		_ = sort.SearchFloat64s(snapshot, counts[i%p.IDs])
	}
	return time.Since(start) / time.Duration(ops)
}

func timeCountPersistence(p AblationParams) (withCache, synchronous time.Duration, err error) {
	db, err := engine.Open(p.Dir, engine.WithPoolPages(16))
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE base (id INT PRIMARY KEY)`); err != nil {
		return 0, 0, err
	}
	store, err := engine.NewCountStore(db, "base")
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	// Zipf-ish skewed id stream: hot ids dominate, which is where the
	// write-behind cache earns its keep.
	idAt := func(i int) uint64 {
		if rng.Intn(10) < 8 {
			return uint64(rng.Intn(64))
		}
		return uint64(rng.Intn(p.IDs))
	}

	ops := p.Ops / 10
	if ops < 100 {
		ops = 100
	}

	cache, err := counters.NewCountCache(256, store)
	if err != nil {
		return 0, 0, err
	}
	io := newIOMeter(db, p.IOCost)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := cache.Add(idAt(i), 1); err != nil {
			return 0, 0, err
		}
		io.charge()
	}
	if err := cache.Flush(); err != nil {
		return 0, 0, err
	}
	io.charge()
	withCache = time.Since(start) / time.Duration(ops)

	rng = rand.New(rand.NewSource(p.Seed))
	io.reset()
	start = time.Now()
	for i := 0; i < ops; i++ {
		id := idAt(i)
		v, _, err := store.GetCount(id)
		if err != nil {
			return 0, 0, err
		}
		if err := store.PutCount(id, v+1); err != nil {
			return 0, 0, err
		}
		io.charge()
	}
	synchronous = time.Since(start) / time.Duration(ops)
	return withCache, synchronous, nil
}
