// Command extractbench regenerates every table and figure of the paper's
// evaluation (§4) and prints them in the paper's format.
//
// Usage:
//
//	extractbench [-exp all|fig1|fig2|fig3|fig4|fig5|fig6|table1|table2|table3|table4|table5|
//	                   sybil|detect|detect-cluster|storefront|model|metrics|ablation]
//	             [-scale N] [-seed S] [-tracefile F]
//
// -exp all runs the paper's figures and tables plus the §2.4 analyses
// (sybil, detect, detect-cluster, storefront); model, metrics and
// ablation run only when named. -scale divides the Calgary-shaped
// workload sizes for quick runs (scale 1 = paper scale: 12,179 objects,
// 725,091 requests, synthetic databases up to 1M tuples).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	delaydefense "repro"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (all, fig1..fig6, table1..table5, model, ablation, sybil, detect, detect-cluster, storefront, metrics)")
		scale     = flag.Int("scale", 1, "divide Calgary-shaped workload sizes by this factor")
		seed      = flag.Int64("seed", 2004, "random seed for synthetic workloads")
		traceFile = flag.String("tracefile", "", "replay this trace file (cmd/tracegen format) for fig1/table3 instead of the synthetic Calgary workload")
	)
	flag.Parse()
	if err := run(strings.ToLower(*exp), *scale, *seed, *traceFile); err != nil {
		fmt.Fprintf(os.Stderr, "extractbench: %v\n", err)
		os.Exit(1)
	}
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadTrace(f)
}

func run(exp string, scale int, seed int64, traceFile string) error {
	cal := experiments.DefaultCalgaryParams()
	cal.Scale = scale
	cal.Seed = seed
	box := experiments.DefaultBoxOfficeParams()
	box.Seed = seed
	dyn := experiments.DefaultDynamicParams()
	if scale > 1 {
		dyn.N /= scale
		if dyn.N < 1000 {
			dyn.N = 1000
		}
	}

	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	// The attack tables share nothing but the learned defense: the wanted
	// ones start now, alongside the deterministic experiments below, and
	// are waited for before Table 5 times anything. They print in order
	// after it, gap printing a blank line first to set the cluster tables
	// apart as one block.
	type attack struct {
		run func() (*experiments.Table, error)
		gap bool
	}
	var attacks []attack
	if want("sybil") {
		sp := experiments.DefaultSybilParams()
		sp.Scale = scale
		sp.Seed = seed
		attacks = append(attacks, attack{run: func() (*experiments.Table, error) { return experiments.SybilAnalysis(sp) }})
	}
	// The legitimate readers' queries shrink with the catalogue they
	// read: at 1/scale of the tuples, a reader issuing the paper's 1,000
	// queries would cover scale times its share and cross the detector's
	// grace, a collateral cost that does not exist at scale 1.
	legitQueries := max(experiments.DefaultSybilDetectionParams().LegitQueries/scale, 1)
	if want("detect") {
		dp := experiments.DefaultSybilDetectionParams()
		dp.Scale = scale
		dp.Seed = seed
		dp.LegitQueries = legitQueries
		attacks = append(attacks, attack{run: func() (*experiments.Table, error) {
			res, err := experiments.SybilDetection(dp)
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		}})
	}
	if want("detect-cluster") {
		dp := experiments.DefaultShardedSybilParams()
		dp.Scale = scale
		dp.Seed = seed
		dp.LegitQueries = legitQueries
		pp := experiments.DefaultPartitionedSybilParams()
		pp.Scale = scale
		pp.Seed = seed
		pp.LegitQueries = legitQueries
		for i, table := range []func() (*experiments.ShardedSybilResult, error){
			func() (*experiments.ShardedSybilResult, error) { return experiments.ShardedSybilDetection(dp) },
			func() (*experiments.ShardedSybilResult, error) { return experiments.PartitionedSybilDetection(pp) },
			func() (*experiments.ShardedSybilResult, error) { return experiments.PartitionedShardKillSybil(pp) },
		} {
			attacks = append(attacks, attack{gap: i > 0, run: func() (*experiments.Table, error) {
				res, err := table()
				if err != nil {
					return nil, err
				}
				return res.Table, nil
			}})
		}
	}
	tabs := make([]*experiments.Table, len(attacks))
	errs := make([]error, len(attacks))
	var wg sync.WaitGroup
	defer wg.Wait() // an early error still waits for the attack tables
	for i, a := range attacks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs[i], errs[i] = a.run()
		}()
	}
	if want("fig1") {
		var tab *experiments.Table
		var err error
		if traceFile != "" {
			tr, lerr := loadTrace(traceFile)
			if lerr != nil {
				return lerr
			}
			tab, err = experiments.Fig1FromTrace(tr)
		} else {
			tab, err = experiments.Fig1(cal)
		}
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("table1") {
		tab, _, err := experiments.Table1(cal)
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("table2") {
		tab, _, err := experiments.Table2(cal)
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("table3") {
		var tab *experiments.Table
		var err error
		if traceFile != "" {
			tr, lerr := loadTrace(traceFile)
			if lerr != nil {
				return lerr
			}
			decays := []float64{1.000000, 1.000001, 1.000002, 1.000005, 1.000010, 1.000020}
			tab, _, err = experiments.Table3FromTrace(tr, cal, decays)
		} else {
			tab, _, err = experiments.Table3(cal)
		}
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("fig2") {
		tab, err := experiments.Fig2(box)
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("fig3") {
		tab, err := experiments.Fig3(box)
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("table4") {
		tab, _, err := experiments.Table4(box)
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("fig4") || want("fig5") || want("fig6") {
		fig4, fig5, fig6, _, err := experiments.DynamicSweep(dyn)
		if err != nil {
			return err
		}
		if want("fig4") {
			fig4.Print(os.Stdout)
		}
		if want("fig5") {
			fig5.Print(os.Stdout)
		}
		if want("fig6") {
			fig6.Print(os.Stdout)
		}
		ran = true
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if want("table5") {
		dir, err := os.MkdirTemp("", "extractbench-table5-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		tab, _, err := experiments.Table5(experiments.DefaultOverheadParams(dir))
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	for i, tab := range tabs {
		if attacks[i].gap {
			fmt.Println()
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if want("storefront") {
		fp := experiments.DefaultStorefrontParams()
		if scale > 1 {
			fp.N /= scale
			fp.Queries /= scale
		}
		tab, err := experiments.StorefrontCoverage(fp)
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if exp == "model" {
		mp := experiments.DefaultModelParams()
		if scale > 1 {
			mp.N /= scale
			mp.Requests /= scale
		}
		tab, err := experiments.ModelValidation(mp)
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if exp == "metrics" {
		if err := metricsDemo(scale); err != nil {
			return err
		}
		ran = true
	}
	if exp == "ablation" || exp == "ablations" {
		dir, err := os.MkdirTemp("", "extractbench-ablation-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		tab, err := experiments.Ablations(experiments.DefaultAblationParams(dir))
		if err != nil {
			return err
		}
		tab.Print(os.Stdout)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// metricsDemo runs a skewed front-door workload with a fraction of
// abandoned (cancelled) queries through a shielded database and prints
// the resulting instrument snapshot — the delay-seconds histogram, the
// served/cancelled split, and the rejection counters — as JSON.
func metricsDemo(scale int) error {
	n := 1000 / scale
	if n < 100 {
		n = 100
	}
	dir, err := os.MkdirTemp("", "extractbench-metrics-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := delaydefense.Open(dir, delaydefense.Config{
		N: n, Alpha: 1, Beta: 2, Cap: 10 * time.Second,
		Clock:     delaydefense.NewSimulatedClock(time.Unix(0, 0)),
		QueryRate: 50, QueryBurst: 100,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO items VALUES (%d, 'v%d')`, i, i)); err != nil {
			return err
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: these queries abandon at the gate, still charged
	for i := 0; i < 4*n; i++ {
		// Harmonic-ish skew: low ids dominate, the tail stays cold.
		id := (i * i) % n
		sql := fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, id)
		ctx := context.Background()
		if i%5 == 4 {
			ctx = cancelled
		}
		// Rate-limit rejections and cancellations are the point, not errors.
		db.QueryCtx(ctx, fmt.Sprintf("robot-%d", i%3), sql)
	}
	fmt.Println("instrument snapshot after the workload (GET /metrics serves the same):")
	return db.Metrics().WriteJSON(os.Stdout)
}
