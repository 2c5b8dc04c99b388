// Command bench is the repository's end-to-end benchmark: it drives
// delaydb over real loopback TCP and reports what a user of the system
// sees (BENCHMARK.json's end_to_end metrics) and, in a separate traced
// run, what each layer contributed (its per_layer metrics). See
// README.md in this directory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// Smoke-mode sizes: every path runs, nothing is measured long enough to
// mean anything.
const (
	smokeSeconds = 2
	smokeDiv     = 20
	smokeReplay  = 400
)

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and print its result as the last line (the driver's contract); empty runs all four, untraced then traced")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed gives the same statements and arrival times")
		seconds      = fs.Float64("seconds", 0, "measured seconds per run: closed loop, or half open and half closed loop in a traced run (0 = BENCHMARK.json's run_seconds)")
		trace        = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics from the traced run")
		smoke        = fs.Bool("smoke", false, "1 s windows on fixtures a twentieth the size, no validity guards: proves every path runs")
		repeat       = fs.Int("repeat", 0, "run this many whole sets (workload order alternating), keep them under -out and print median and quartiles per metric x workload")
		against      = fs.String("against", "", "compare the sets under -out (after any -repeat) with the sets under this directory, using BENCHMARK.json's bounds")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "directory for traces, result files and scratch data")
		benchFile    = fs.String("benchmark", "BENCHMARK.json", "the benchmark's declaration")

		serve  = fs.String("serve", "", "internal: run as the named workload's server child")
		dir    = fs.String("dir", "", "internal: the server child's data directory")
		div    = fs.Int("div", 1, "internal: the server child's fixture divisor")
		reopen = fs.Bool("reopen", false, "internal: the server child opens -dir without loading")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *serve != "" {
		w, err := findWorkload(*serve)
		if err != nil {
			return err
		}
		return serveChild(w.scaled(*div), *dir, *seed, *reopen, os.Stdin, stdout)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	base := runSpec{div: 1, seed: *seed, seconds: *seconds, outDir: *outDir}
	if *smoke {
		base.div, base.seconds = smokeDiv, smokeSeconds
	}
	if base.seconds == 0 {
		bf, err := readBenchmarkFile(*benchFile)
		if err != nil {
			return fmt.Errorf("-seconds not given and the declaration is unreadable: %w", err)
		}
		base.seconds = float64(bf.RunSeconds)
	}

	switch {
	case *workloadName != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			return err
		}
		spec := base.with(w, *trace == 1, *smoke)
		res, err := spec.run()
		if err != nil {
			return err
		}
		printRun(stdout, res)
		line, err := contractLine(res)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
		return nil
	case *repeat > 0 || *against != "":
		bf, err := readBenchmarkFile(*benchFile)
		if err != nil {
			return err
		}
		for k := 0; k < *repeat; k++ {
			if _, err := runSet(stdout, base, *smoke, k, filepath.Join(*outDir, fmt.Sprintf("set-%02d.json", k))); err != nil {
				return err
			}
		}
		mine, err := loadSets(*outDir)
		if err != nil {
			return err
		}
		printSpreads(stdout, mine)
		if *against == "" {
			return nil
		}
		theirs, err := loadSets(*against)
		if err != nil {
			return err
		}
		if regressed := compareSets(stdout, bf, theirs, mine); regressed > 0 {
			return fmt.Errorf("%d metric x workload pairings are worse than %s by more than their bound", regressed, *against)
		}
		return nil
	default:
		set, err := runSet(stdout, base, *smoke, 0, filepath.Join(*outDir, fmt.Sprintf("result-seed%d.json", *seed)))
		if err != nil {
			return err
		}
		if *smoke {
			return nil
		}
		if failures := set.guards(); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(stdout, "INVALID: %s\n", f)
			}
			return errors.New("the run is not a valid measurement; see INVALID lines above")
		}
		return nil
	}
}

// with fills in the per-workload parts of a run.
func (s runSpec) with(w *workload, trace, smoke bool) runSpec {
	s.w, s.trace, s.replay = w, trace, w.replay
	if smoke {
		s.replay = smokeReplay
	}
	return s
}
