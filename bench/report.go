package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance says what produced a result set.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// commit names the source tree the benchmark ran in: its git HEAD, or
// "unknown" outside a work tree (the driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultSet is one whole set: every workload, untraced then traced.
type resultSet struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

func printRun(out io.Writer, r *runResult) {
	kind, defs := "end-to-end (tracing off)", endToEnd
	if r.Trace {
		kind, defs = "per-layer (traced run)", perLayer
	}
	fmt.Fprintf(out, "== %s, seed %d: %s; %d operations attempted, %d failed\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(out, "  %-32s %16.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
}

// runSet runs every workload untraced and traced, in table order for even
// k and reversed for odd k, prints each run and writes the set to path.
func runSet(out io.Writer, base runSpec, smoke bool, k int, path string) (*resultSet, error) {
	base.seed += int64(k)
	set := &resultSet{Provenance: provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: base.seed, Seconds: base.seconds, Smoke: smoke,
	}}
	p := set.Provenance
	fmt.Fprintf(out, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g measured seconds per run\n", p.Commit, p.GoVersion, p.NProc, p.GOMAXPROCS, p.Seed, p.Seconds)
	order := append([]*workload(nil), workloads...)
	if k%2 == 1 {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, w := range order {
		for _, trace := range []bool{false, true} {
			res, err := base.with(w, trace, smoke).run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(out, res)
			set.Runs = append(set.Runs, res)
		}
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return nil, err
	}
	return set, os.WriteFile(path, append(raw, '\n'), 0o644)
}

// guards returns why the set is not a valid measurement, if it is not.
func (set *resultSet) guards() []string {
	var out []string
	var failed int64
	for _, r := range set.Runs {
		failed += r.Failed
		if !r.Trace {
			continue
		}
		if r.lagShare > 0.10 {
			out = append(out, fmt.Sprintf("%s: the open-loop generator's p90 lag is %.0f%% of the central read mean (limit 10%%)", r.Workload, 100*r.lagShare))
		}
		if v := r.Metrics["trace.intended_share"].Value; v < 1.0/3 {
			out = append(out, fmt.Sprintf("%s: its intended layers hold %.0f%% of the replayed time (at least a third expected)", r.Workload, 100*v))
		}
		if v := r.Metrics["trace.sum_ratio"].Value; v < 0.9 || v > 1.1 {
			out = append(out, fmt.Sprintf("%s: trace.sum_ratio is %.3f, outside 0.9-1.1", r.Workload, v))
		}
	}
	if failed > 0 {
		out = append(out, fmt.Sprintf("%d operations failed", failed))
	}
	return out
}

// loadSets reads every set-*.json under dir.
func loadSets(dir string) ([]*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "set-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no set-*.json under %s; run with -repeat first", dir)
	}
	sort.Strings(paths)
	var sets []*resultSet
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		sets = append(sets, &s)
	}
	return sets, nil
}

// values collects one metric of one workload across sets.
func values(sets []*resultSet, workload string, trace bool, name string) []float64 {
	var v []float64
	for _, s := range sets {
		for _, r := range s.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / med
}

func printSpreads(out io.Writer, sets []*resultSet) {
	fmt.Fprintf(out, "\n%d sets: median [q1, q3] spread, per metric x workload\n", len(sets))
	for _, w := range workloads {
		for _, group := range []struct {
			trace bool
			defs  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			for _, d := range group.defs {
				v := values(sets, w.name, group.trace, d.Name)
				if len(v) == 0 {
					continue
				}
				q1, q3 := quartiles(v)
				fmt.Fprintf(out, "  %-12s %-32s %14.4f [%14.4f, %14.4f] %6.2f%% %s\n", w.name, d.Name, median(v), q1, q3, 100*spread(v), d.Unit)
			}
		}
	}
}

// compareSets judges mine against base on every end-to-end metric x
// workload with the bounds the declaration fixes, and returns how many
// pairings regressed. A pairing whose same-code spread exceeds its bound
// is unresolved: the runs cannot tell a regression from noise.
func compareSets(out io.Writer, bf *benchmarkFile, base, mine []*resultSet) (regressed int) {
	fmt.Fprintf(out, "\ncomparison against the baseline (%d sets) of these %d sets; worse-by is a share of the baseline median\n", len(base), len(mine))
	for _, w := range workloads {
		for _, d := range bf.EndToEnd {
			b, m := values(base, w.name, false, d.Name), values(mine, w.name, false, d.Name)
			if len(b) == 0 || len(m) == 0 {
				continue
			}
			bm, mm := median(b), median(m)
			worse := (mm - bm) / bm
			if d.Better == "higher" {
				worse = -worse
			}
			noise := max(spread(b), spread(m))
			verdict := "ok"
			switch {
			case noise > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(out, "  %-12s %-22s baseline %14.4f now %14.4f worse by %+7.2f%% (bound %5.2f%%, spread %5.2f%%) %s\n",
				w.name, d.Name, bm, mm, 100*worse, 100*d.Bound, 100*noise, verdict)
		}
	}
	return regressed
}
