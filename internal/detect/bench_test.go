package detect

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// BenchmarkDetectorObserveBatch measures the detector's observe path
// for a 1000-tuple scan — two sketch updates per id plus one shard lock
// round-trip per batch, and every 256th batch a sweep that finds no
// candidate. This is the whole per-query cost detection adds when
// enabled (`make bench-detect`).
func BenchmarkDetectorObserveBatch(b *testing.B) {
	d, err := NewDetector(Config{CatalogSize: 1_000_000})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ObserveBatch("bench", ids)
	}
}

// BenchmarkDetectorObserveBatchParallel is the same scan observed by
// many principals at once, exercising the shard striping.
func BenchmarkDetectorObserveBatchParallel(b *testing.B) {
	d, err := NewDetector(Config{CatalogSize: 1_000_000})
	if err != nil {
		b.Fatal(err)
	}
	var goroutine atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ids := make([]uint64, 1000)
		for i := range ids {
			ids[i] = uint64(i)
		}
		name := fmt.Sprintf("bench%d", goroutine.Add(1))
		for pb.Next() {
			d.ObserveBatch(name, ids)
		}
	})
}

// reclusterShapes are the candidate sets the sweep is timed on. Before
// every timed sweep, with the timer stopped, each candidate reads one
// scan_mixed range (see scanner), so a sweep has what it has on that
// workload: a few slots lowered per candidate since the last one. The
// number that matters is history=scans: 256 principals of scan_mixed
// traffic, all over the candidate floor, whose signatures agree wherever
// popular ranges were read by both. history=cold is the same sweep with
// every column handed out afresh, as on the first sweep after a restart
// absorbs its peers' snapshots: every slot of every candidate is copied
// and every pair recounted. The disjoint history starts from no agreeing
// slot anywhere.
var reclusterShapes = []struct {
	name  string
	cands int
	pop   population
	cold  bool
}{
	{"cands=64/history=disjoint", 64, population{
		cfg:   Config{CatalogSize: 100_000},
		floor: 1e-9,
		feed: func(d *Detector, _ *rand.Rand) {
			for p := 0; p < 64; p++ {
				observeRange(d, fmt.Sprintf("p%02d", p), p*500, (p+1)*500)
			}
		},
	}, false},
	{"cands=256/history=scans", 256, population{cfg: sweepConfig(200_000), feed: feedScans(256, 160)}, false},
	{"cands=256/history=cold", 256, population{cfg: sweepConfig(200_000), feed: feedScans(256, 160)}, true},
}

func benchmarkSweep(b *testing.B, sweep func(*Detector)) {
	for _, shape := range reclusterShapes {
		b.Run(shape.name, func(b *testing.B) {
			d := build(b, shape.pop, 1)
			d.Recluster()
			if n := len(d.sweep.cands); n != shape.cands {
				b.Fatalf("the sweep has %d candidates, want %d", n, shape.cands)
			}
			names := make([]string, 0, shape.cands)
			for _, c := range d.sweep.cands {
				names = append(names, c.name)
			}
			sc := newScanner(d.cfg.CatalogSize, rand.New(rand.NewSource(2)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Holding clusterMu makes the observers skip the sweeps
				// their batches cross.
				d.clusterMu.Lock()
				for _, name := range names {
					d.ObserveBatch(name, sc.next())
				}
				if shape.cold {
					d.sweep.n = 0
					clear(d.sweep.colOf)
				}
				d.clusterMu.Unlock()
				b.StartTimer()
				sweep(d)
			}
		})
	}
}

// BenchmarkRecluster measures a full clustering sweep over a saturated
// candidate set — the cost paid every reclusterEvery batches by the
// request that crosses the count.
func BenchmarkRecluster(b *testing.B) { benchmarkSweep(b, (*Detector).Recluster) }

// BenchmarkReclusterOracle is the same sweep done pair by pair, run in
// the same process so `make bench-smoke` can hold the sweep to a
// fraction of it on any machine.
func BenchmarkReclusterOracle(b *testing.B) { benchmarkSweep(b, pairwiseRecluster) }
