package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/counters"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/stats"
)

// OverheadParams configures the §4.4 implementation-overhead experiment
// (Table 5): simple selection queries with and without count maintenance
// and delay computation, on the embedded engine.
type OverheadParams struct {
	// Rows is the table size.
	Rows int
	// Queries is how many random selections to average over (paper: 100).
	Queries int
	// PayloadBytes pads each row so the table spans many pages.
	PayloadBytes int
	// PoolPages is the buffer pool capacity; caches are dropped before
	// every query so each selection pays real page I/O, as the paper's
	// 55 ms base cost implies.
	PoolPages int
	// CountCacheSize bounds the write-behind count cache; keeping it
	// below Rows reproduces the paper's "not all counts are kept in
	// memory, resulting in some I/O overhead".
	CountCacheSize int
	// IOCost adds a fixed CPU spin per physical page I/O to stand in for
	// 2004-era disk latency; 0 disables it.
	IOCost time.Duration
	// IndexIO is the number of synthetic index-page reads charged per
	// selection in BOTH measured paths. The commercial RDBMS of the
	// paper descends a disk-resident index (3–4 page reads) before
	// touching the data page; our B+tree lives in memory, so without
	// this the base query would be unrealistically cheap relative to
	// count maintenance and the overhead ratio would not be comparable.
	IndexIO int
	// Dir is the working directory for the database files.
	Dir  string
	Seed int64
}

// DefaultOverheadParams returns a configuration sized to finish in a few
// seconds while remaining I/O-bound like the paper's setup.
func DefaultOverheadParams(dir string) OverheadParams {
	return OverheadParams{
		Rows:           20_000,
		Queries:        100,
		PayloadBytes:   200,
		PoolPages:      32,
		CountCacheSize: 512,
		IOCost:         200 * time.Microsecond,
		IndexIO:        3,
		Dir:            dir,
		Seed:           5,
	}
}

// Table5Result carries the measured costs.
type Table5Result struct {
	BaseAvg, BaseStdev   time.Duration
	TotalAvg, TotalStdev time.Duration
	Overhead             time.Duration
	OverheadPercent      float64
}

// Table5 reproduces Table 5 (Overheads in Simple Selection Queries): 100
// random single-tuple selections, each measured bare and with the full
// §2.3/§4.4 machinery — per-tuple count maintenance through a
// write-behind cache backed by a count table in the same database, plus
// per-query delay computation. Wall-clock times are real; the imposed
// delay itself is quoted but not slept, since Table 5 measures mechanism
// cost, not the defense.
func Table5(p OverheadParams) (*Table, *Table5Result, error) {
	if p.Rows < 1 || p.Queries < 1 {
		return nil, nil, fmt.Errorf("experiments: bad overhead params %+v", p)
	}
	db, err := engine.Open(p.Dir, engine.WithPoolPages(p.PoolPages), engine.WithIOCost(spin(p.IOCost)))
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()
	if err := loadItems(db, p.Rows, p.PayloadBytes); err != nil {
		return nil, nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	queries := make([]string, p.Queries)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, rng.Intn(p.Rows))
	}

	// indexIO models the disk-resident index descent of the paper's
	// substrate; charged identically on both paths.
	indexIO := spin(time.Duration(p.IndexIO) * p.IOCost)

	// With the scheme: counts through a write-behind cache backed by a
	// count table in the same database, plus delay computation.
	store, err := engine.NewCountStore(db, "items")
	if err != nil {
		return nil, nil, err
	}
	// The paper's design gives every tuple a count attribute; populate
	// the count table up front (setup cost, untimed) so count reads
	// fault real pages like any other column would.
	for id := 0; id < p.Rows; id++ {
		if err := store.PutCount(uint64(id), 0); err != nil {
			return nil, nil, err
		}
	}
	if err := db.Flush(); err != nil {
		return nil, nil, err
	}
	cache, err := counters.NewCountCache(p.CountCacheSize, store)
	if err != nil {
		return nil, nil, err
	}
	tracker, err := counters.NewDecayed(1)
	if err != nil {
		return nil, nil, err
	}
	pol, err := delay.NewPopularity(delay.PopularityConfig{
		N: p.Rows, Alpha: 1.0, Beta: 2.0, Cap: 10 * time.Second,
	}, tracker)
	if err != nil {
		return nil, nil, err
	}

	// Each query is timed twice on a cold cache, bare and then with the
	// scheme, one right after the other: a slow spell of the host lands on
	// both columns instead of on whichever phase it happened to hit.
	base, total := make([]float64, p.Queries), make([]float64, p.Queries)
	for i, q := range queries {
		for _, scheme := range []bool{false, true} {
			if err := db.DropCaches(); err != nil {
				return nil, nil, err
			}
			start := time.Now()
			indexIO()
			res, err := db.Exec(q)
			if err != nil {
				return nil, nil, err
			}
			if !scheme {
				base[i] = float64(time.Since(start)) / float64(time.Millisecond)
				continue
			}
			// Delay computation (quoted, not slept) and count maintenance
			// for every returned tuple.
			for _, key := range res.Keys {
				_ = pol.Delay(key)
				tracker.Observe(key)
				if _, err := cache.Add(key, 1); err != nil {
					return nil, nil, err
				}
			}
			total[i] = float64(time.Since(start)) / float64(time.Millisecond)
		}
	}
	if err := cache.Flush(); err != nil {
		return nil, nil, err
	}

	res := &Table5Result{
		BaseAvg:    delay.SecondsToDuration(stats.Mean(base) / 1000),
		BaseStdev:  delay.SecondsToDuration(stats.Stdev(base) / 1000),
		TotalAvg:   delay.SecondsToDuration(stats.Mean(total) / 1000),
		TotalStdev: delay.SecondsToDuration(stats.Stdev(total) / 1000),
	}
	res.Overhead = res.TotalAvg - res.BaseAvg
	if res.BaseAvg > 0 {
		res.OverheadPercent = 100 * float64(res.Overhead) / float64(res.BaseAvg)
	}

	t := &Table{
		Title: "Table 5. Overheads in Simple Selection Queries",
		Header: []string{
			"Base avg (ms)", "Base stdev (ms)",
			"Total avg (ms)", "Total stdev (ms)",
			"Overhead (ms)", "Overhead (%)",
		},
		Rows: [][]string{{
			Millis(res.BaseAvg), Millis(res.BaseStdev),
			Millis(res.TotalAvg), Millis(res.TotalStdev),
			Millis(res.Overhead), fmt.Sprintf("%.1f%%", res.OverheadPercent),
		}},
		Notes: []string{
			fmt.Sprintf("%d rows, %d queries, pool %d pages, count cache %d entries, synthetic I/O cost %v/page, %d index page reads charged per selection",
				p.Rows, p.Queries, p.PoolPages, p.CountCacheSize, p.IOCost, p.IndexIO),
			"paper: base 55.17 (15.61) ms, total 66.20 (27.84) ms, overhead 11.04 ms ≈ 20%",
		},
	}
	return t, res, nil
}

// loadItems populates the items table with padded rows using multi-row
// inserts.
func loadItems(db *engine.Database, rows, payloadBytes int) error {
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, payload TEXT)`); err != nil {
		return err
	}
	pad := strings.Repeat("x", payloadBytes)
	const batch = 500
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO items VALUES ")
		for i := lo; i < lo+batch && i < rows; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", i, pad)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			return err
		}
	}
	return db.Flush()
}

// spin returns a function that busy-waits for d; busy-waiting is steadier
// than time.Sleep at sub-millisecond granularity.
func spin(d time.Duration) func() {
	if d <= 0 {
		return func() {}
	}
	return func() {
		end := time.Now().Add(d)
		for time.Now().Before(end) {
		}
	}
}
