// Command benchcmp compares a fresh benchmark run against a base run
// and fails when a key regressed beyond tolerance, so CI can gate merges
// on numbers instead of eyeballs. scripts/bench.sh's check mode records
// both runs in one sitting on one host — R alternating rounds of the
// base commit and the working tree — so the two are compared as they
// stand.
//
// Both files are flat JSON objects of benchmark name -> ns/op, where a
// value is one number (the committed BENCH_*.json files: the minimum of
// their repetitions) or a list of them (check mode: one per round). Two
// kinds of checks run:
//
//   - Regression: a key present in both files fails only when the new
//     run's median is worse than the base's by more than tol percent AND
//     every new round is slower than every base round. A single process
//     on a shared host moves a key by 20-45%, so a median past the
//     tolerance with overlapping rounds is reported as unresolved, not
//     failed: only no overlap says the code, not the host, moved it.
//     Keys present in only one file are reported but do not fail the run
//     (benchmarks come and go).
//
//   - Invariants (-le "keyA,keyB,factor", repeatable): within the NEW
//     run alone, median(new[keyA]) <= median(new[keyB]) * factor. This is
//     how the shape constraints are enforced — e.g. point queries at g=16
//     must not be slower than g=1 — independent of machine speed.
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
	"slices"
	"sort"
	"strconv"
	"strings"
)

// invariant is one -le constraint: new[a] <= new[b] * factor.
type invariant struct {
	a, b   string
	factor float64
}

// holds evaluates the invariant on the medians of run m; ok=false when
// m lacks either key.
func (iv invariant) holds(m map[string][]float64) (holds bool, a, b float64, ok bool) {
	as, okA := m[iv.a]
	bs, okB := m[iv.b]
	if !okA || !okB {
		return false, 0, 0, false
	}
	a, b = median(as), median(bs)
	return a <= b*iv.factor, a, b, true
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

// load reads a name -> ns/op file, each key's samples sorted ascending.
func load(path string) (map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return nil, fmt.Errorf(
			"%s is empty — did scripts/bench.sh's benchmark run fail?",
			path)
	}
	raw := make(map[string]json.RawMessage)
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("%s has no benchmark keys — did scripts/bench.sh's benchmark run fail?", path)
	}
	m := make(map[string][]float64, len(raw))
	for name, v := range raw {
		var one float64
		var all []float64
		if err := json.Unmarshal(v, &one); err == nil {
			all = []float64{one}
		} else if err := json.Unmarshal(v, &all); err != nil || len(all) == 0 {
			return nil, fmt.Errorf("%s: %s is neither a number nor a non-empty list of them", path, name)
		}
		slices.Sort(all)
		m[name] = all
	}
	return m, nil
}

// median of sorted samples.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// regressed judges sorted new samples n against sorted base samples b:
// fail when n's median exceeds b's times limit and every new sample is
// slower than every base sample; unresolved when the median is past the
// limit but the two overlap.
func regressed(b, n []float64, limit float64) (fail, unresolved bool) {
	if median(n) <= median(b)*limit {
		return false, false
	}
	apart := n[0] > b[len(b)-1]
	return apart, !apart
}

// span renders sorted samples as median [min, max].
func span(s []float64) string {
	if len(s) == 1 {
		return fmt.Sprintf("%.4g", s[0])
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(s), s[0], s[len(s)-1])
}

func main() {
	tol := flag.Float64("tol", 20, "allowed regression of the median per key, percent")
	shape := flag.String("shape", "", "regexp of keys gated by their -le invariants only, never against the base run")
	var invs invariantList
	flag.Var(&invs, "le", "invariant newKeyA,newKeyB,factor: require median new[A] <= median new[B]*factor (repeatable)")
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
		if shaped[name] {
			continue
		}
		if !ok {
			fmt.Printf("note: %s in base only (skipped)\n", name)
			continue
		}
		bm, nm := median(b), median(n)
		fail, unresolved := regressed(b, n, limit)
		switch {
		case bm <= 0:
			fmt.Printf("note: %s base %.4g not positive (skipped)\n", name, bm)
		case fail:
			failed = true
			fmt.Printf("FAIL %s: %s ns/op vs base %s (median %+.1f%% > %.0f%%, no overlap)\n",
				name, span(n), span(b), (nm/bm-1)*100, *tol)
		case unresolved:
			fmt.Printf("ok?  %s: %s ns/op vs base %s (median %+.1f%% > %.0f%%, rounds overlap: unresolved)\n",
				name, span(n), span(b), (nm/bm-1)*100, *tol)
		default:
			fmt.Printf("ok   %s: %s ns/op vs base %s (median %+.1f%%)\n",
				name, span(n), span(b), (nm/bm-1)*100)
		}
	}
	for _, name := range sortedKeys(cur) {
		if _, ok := base[name]; !ok {
			fmt.Printf("note: %s new only, not in base (skipped)\n", name)
		}
	}

	for _, iv := range invs {
		holds, a, b, ok := iv.holds(cur)
		switch {
		case !ok:
			fmt.Printf("note: invariant %s <= %s*%.3g skipped (key missing from new run)\n",
				iv.a, iv.b, iv.factor)
		case holds:
			fmt.Printf("ok   invariant: %s (%.4g) <= %s (%.4g) * %.3g\n",
				iv.a, a, iv.b, b, iv.factor)
		default:
			failed = true
			fmt.Printf("FAIL invariant: %s (%.4g) > %s (%.4g) * %.3g\n",
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
func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
