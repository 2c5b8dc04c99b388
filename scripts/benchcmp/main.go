// Command benchcmp compares a fresh benchmark run against a base run
// and fails when a key regressed beyond tolerance, so CI can gate merges
// on numbers instead of eyeballs. scripts/bench.sh's check mode records
// both runs in one sitting on one host — the base commit's, then the
// working tree's — so the two are compared as they stand.
//
// Both files are the flat JSON objects scripts/bench.sh writes
// (benchmark name -> ns/op). Two kinds of checks run:
//
//   - Regression: every key present in both files must satisfy
//     new <= base * (1 + tol/100). Keys present in only one file are
//     reported but do not fail the run (benchmarks come and go).
//
//   - Invariants (-le "keyA,keyB,factor", repeatable): within the NEW
//     run alone, new[keyA] <= new[keyB] * factor. This is how the
//     shape constraints are enforced — e.g. point queries at g=16 must
//     not be slower than g=1, and quoting a scan over a history of
//     scans must not lose to one over a random history — independent
//     of machine speed.
//
//   - Shape-only keys (-shape regexp): a key the expression matches is
//     left out of the regression check. An fsync-bound benchmark
//     measures the disk the run is on, which on a shared host moves by
//     2x with no commit in between; comparing its ns/op says nothing,
//     the invariants between its keys do.
//
// Usage:
//
//	benchcmp [-tol 20] [-shape re] [-le a,b,f]... base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// invariant is one -le constraint: new[a] <= new[b] * factor.
type invariant struct {
	a, b   string
	factor float64
}

type invariantList []invariant

func (l *invariantList) String() string { return fmt.Sprint(*l) }

func (l *invariantList) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return fmt.Errorf("want keyA,keyB,factor, got %q", s)
	}
	f, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || f <= 0 {
		return fmt.Errorf("bad factor in %q", s)
	}
	*l = append(*l, invariant{a: parts[0], b: parts[1], factor: f})
	return nil
}

func load(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return nil, fmt.Errorf(
			"%s is empty — did scripts/bench.sh's benchmark run fail?",
			path)
	}
	m := make(map[string]float64)
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s has no benchmark keys — did scripts/bench.sh's benchmark run fail?", path)
	}
	return m, nil
}

func main() {
	tol := flag.Float64("tol", 20, "allowed regression per key, percent")
	shape := flag.String("shape", "", "regexp of keys gated by their -le invariants only, never against the base run")
	var invs invariantList
	flag.Var(&invs, "le", "invariant newKeyA,newKeyB,factor: require new[A] <= new[B]*factor (repeatable)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-tol pct] [-shape re] [-le a,b,f]... base.json new.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	shaped := make(map[string]bool)
	if *shape != "" {
		re, err := regexp.Compile(*shape)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp: -shape:", err)
			os.Exit(2)
		}
		for _, name := range sortedKeys(base) {
			if re.MatchString(name) {
				delete(base, name)
				shaped[name] = true
				fmt.Printf("note: %s gated by shape only (base not compared)\n", name)
			}
		}
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	failed := false
	limit := 1 + *tol/100
	for _, name := range sortedKeys(base) {
		b := base[name]
		n, ok := cur[name]
		if !ok {
			fmt.Printf("note: %s in base only (skipped)\n", name)
			continue
		}
		switch {
		case b <= 0:
			fmt.Printf("note: %s base %.4g not positive (skipped)\n", name, b)
		case n > b*limit:
			failed = true
			fmt.Printf("FAIL %s: %.4g ns/op vs base %.4g (+%.1f%% > %.0f%%)\n",
				name, n, b, (n/b-1)*100, *tol)
		default:
			fmt.Printf("ok   %s: %.4g ns/op vs base %.4g (%+.1f%%)\n",
				name, n, b, (n/b-1)*100)
		}
	}
	for _, name := range sortedKeys(cur) {
		if _, ok := base[name]; !ok && !shaped[name] {
			fmt.Printf("note: %s new only, not in base (skipped)\n", name)
		}
	}

	for _, iv := range invs {
		a, okA := cur[iv.a]
		b, okB := cur[iv.b]
		if !okA || !okB {
			fmt.Printf("note: invariant %s <= %s*%.3g skipped (key missing from new run)\n",
				iv.a, iv.b, iv.factor)
			continue
		}
		if a > b*iv.factor {
			failed = true
			fmt.Printf("FAIL invariant: %s (%.4g) > %s (%.4g) * %.3g\n",
				iv.a, a, iv.b, b, iv.factor)
		} else {
			fmt.Printf("ok   invariant: %s (%.4g) <= %s (%.4g) * %.3g\n",
				iv.a, a, iv.b, b, iv.factor)
		}
	}

	if failed {
		fmt.Println("benchcmp: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchcmp: ok")
}

// sortedKeys returns the map's keys in order so output is stable.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
