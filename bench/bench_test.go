package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when a run
// re-executes itself as a server child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		if err := mainErr(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// streamDigest renders the first n statements and arrival offsets of one
// connection and hashes them.
func streamDigest(w *workload, seed int64, conn, nconn, n int) [32]byte {
	perm := keyPermutation(w.rows)
	src := newStream(w, seed, phaseOpen, conn, nconn, perm)
	arr := newArrivals(w, seed, conn, nconn)
	var buf []byte
	h := sha256.New()
	for i := 0; i < n; i++ {
		st := src.next()
		buf = w.appendSQL(buf[:0], seed, st)
		fmt.Fprintf(h, "%s|%s|%d\n", identityName(st.ident), buf, arr.next())
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w := w.scaled(smokeDiv)
		a, b := streamDigest(w, 7, 1, 2, 3000), streamDigest(w, 7, 1, 2, 3000)
		if a != b {
			t.Errorf("%s: same seed gave two different request streams", w.name)
		}
		if c := streamDigest(w, 8, 1, 2, 3000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
		if c := streamDigest(w, 7, 0, 2, 3000); a == c {
			t.Errorf("%s: connections 0 and 1 gave the same request stream", w.name)
		}
	}
}

func TestStreamKeepsSingleKeyStatementsOnTheirConnection(t *testing.T) {
	w := workloads[2].scaled(smokeDiv) // write_mix: every single-key kind
	const nconn = 3
	for conn := 0; conn < nconn; conn++ {
		src := newStream(w, 1, phaseClosed, conn, nconn, keyPermutation(w.rows))
		live := map[int64]bool{}
		for i := 0; i < 5000; i++ {
			st := src.next()
			if st.kind == kRange || st.kind == kCount || st.kind == kTopN {
				continue
			}
			if int(st.key)%nconn != conn {
				t.Fatalf("connection %d got %v on key %d", conn, st.kind, st.key)
			}
			switch st.kind {
			case kInsert:
				if live[st.key] || st.key <= int64(w.rows) {
					t.Fatalf("insert of id %d, which exists", st.key)
				}
				live[st.key] = true
			case kDelete:
				if !live[st.key] {
					t.Fatalf("delete of id %d, which this stream did not insert", st.key)
				}
				delete(live, st.key)
			}
		}
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n        int
		p        float64
		want     int64
		wantUsed float64
	}{
		{2000, 0.99, 1980, 0.99}, // 20 beyond: p99 stands
		{1000, 0.99, 990, 0.99},  // exactly 10 beyond
		{500, 0.99, 490, 0.98},   // p99 would leave 5 beyond: lowered to p98
		{100, 0.99, 90, 0.90},
		{100, 0.50, 50, 0.50},
		{8, 0.99, 1, 0.125}, // fewer than ten samples in all: the minimum
	} {
		got, used := percentile(seq(tc.n), tc.p)
		if got != tc.want || used != tc.wantUsed {
			t.Errorf("percentile(1..%d, %g) = %d at p%g, want %d at p%g", tc.n, tc.p, got, used*100, tc.want, tc.wantUsed*100)
		}
		if beyond := tc.n - int(got); tc.n > tailSamples && beyond < tailSamples {
			t.Errorf("percentile(1..%d, %g) leaves %d samples beyond, want at least %d", tc.n, tc.p, beyond, tailSamples)
		}
	}
	if v, used := percentile(nil, 0.99); v != 0 || used != 0 {
		t.Errorf("percentile of nothing = %d at %g, want zeros", v, used)
	}
}

func TestTrimmedMean(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	if got := trimmedMean(v, 0.10, 0.90); got != 50.5 { // 11..90
		t.Errorf("central 80%% of 1..100 = %g, want 50.5", got)
	}
	if got := trimmedMean(v, 0.90, 0.99); got != 95 { // 91..99: the slowest value is left out
		t.Errorf("tail of 1..100 = %g, want 95", got)
	}
	if got := trimmedMean([]int64{7}, 0.90, 0.99); got != 7 {
		t.Errorf("tail of one sample = %g, want 7", got)
	}
	if got := trimmedMean(nil, 0.10, 0.90); got != 0 {
		t.Errorf("mean of nothing = %g, want 0", got)
	}
}

func TestQuartilesMatchPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	if q1, q3 := quartiles([]float64{30, 10, 20}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of three = %g, %g; want 10, 30", q1, q3)
	}
}

func TestSelfTimeIsDurationMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},    // overlaps a: 30..40 counted once
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 130},   // clipped to the parent's end
		{Name: "a1", ID: 5, Parent: 2, Start: 10, End: 25},   // a grandchild reduces a, not root
		{Name: "late", ID: 6, Parent: 3, Start: 70, End: 80}, // outside its parent: covers nothing
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 15, 3: 30, 4: 40, 5: 15, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestComposedSpansAddUpToTheRoundTrip(t *testing.T) {
	rt := replayTimes{
		wire:    []int64{1000, 500},
		hop:     []int64{700, 900}, // second statement: the hop pass was slower than the wire one
		route:   []int64{300, 300},
		handler: []int64{200, 350},
		inner: []innerTimes{
			{core: 150, prepare: 20, parse: 10, exec: 60, detect: 5, quote: 30, observe: 10, tuples: 3},
			{core: 100, prepare: 10, exec: 120},
		},
	}
	spans := composeSpans(rt)
	self := selfTimes(spans)
	sum := map[int]int64{}
	for _, sp := range spans {
		sum[sp.Req] += self[sp.ID]
	}
	for req, want := range rt.wire {
		if sum[req] != want {
			t.Errorf("statement %d: self times add up to %d, want its round trip %d", req, sum[req], want)
		}
	}
}

func TestQuietestKeepsTheLowestScores(t *testing.T) {
	scores := []float64{5, 1, 9, 3, 7, 2, 8, 4}
	for _, tc := range []struct {
		share float64
		want  []bool
	}{
		{0.25, []bool{false, true, false, false, false, true, false, false}},
		{0.5, []bool{false, true, false, true, false, true, false, true}},
		{0.01, []bool{false, true, false, false, false, false, false, false}}, // never none
	} {
		got := quietest(scores, tc.share)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("quietest(%v, %g) = %v, want %v", scores, tc.share, got, tc.want)
			}
		}
	}
	if got := quietest(nil, 0.25); len(got) != 0 {
		t.Errorf("quietest of nothing = %v", got)
	}
}

func TestParseQueryReply(t *testing.T) {
	rep, ok := parseQueryReply([]byte(`{"columns":["id","v"],"rows":[["7","a\"b"],["8","c"],["9","d"]],"affected":0,"delay_millis":1.5e1}` + "\n"))
	if !ok || rep.rows != 3 || rep.firstID != 7 || rep.lastID != 9 || !rep.contiguous || string(rep.firstV) != `a\"b` || !rep.hasDelay || rep.delayMillis != 15 {
		t.Errorf("select reply parsed as %+v ok=%v", rep, ok)
	}
	rep, ok = parseQueryReply([]byte(`{"rows":[["7","a"],["9","c"]],"affected":0,"delay_millis":0}`))
	if !ok || rep.contiguous {
		t.Errorf("gap in ids not noticed: %+v ok=%v", rep, ok)
	}
	rep, ok = parseQueryReply([]byte(`{"affected":1,"delay_millis":0}`))
	if !ok || rep.affected != 1 || rep.rows != 0 || !rep.hasDelay {
		t.Errorf("write reply parsed as %+v ok=%v", rep, ok)
	}
	if rep, ok = parseQueryReply([]byte(`{"affected":1}`)); !ok || rep.hasDelay {
		t.Errorf("reply without delay_millis parsed as %+v ok=%v", rep, ok)
	}
	if _, ok = parseQueryReply([]byte(`{"rows":[["7","a"`)); ok {
		t.Error("truncated reply accepted")
	}
}

// TestDeclarationMatchesTheCode keeps BENCHMARK.json and the metric and
// workload tables from drifting apart.
func TestDeclarationMatchesTheCode(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d in the code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: declared %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, code has %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// TestSmoke runs every workload end to end at smoke size: the child
// re-exec, all phases, the verify pass (with the reopen on write_mix) and
// the traced run, and checks that the driver's last line is well formed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers; skipped with -short")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []string{"0", "1"} {
				var out bytes.Buffer
				err := mainErr([]string{"-smoke", "-workload", w.name, "-seed", "3", "-trace", trace, "-out", t.TempDir()}, &out)
				if err != nil {
					t.Fatalf("trace %s: %v\n%s", trace, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct   bool              `json:"correct"`
					Attempted int64             `json:"attempted"`
					Failed    int64             `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("trace %s: last line is not the result object: %v\n%s", trace, err, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !last.Correct || last.Failed != 0 || last.Attempted == 0 || len(last.Metrics) != len(want) {
					t.Errorf("trace %s: correct=%v attempted=%d failed=%d metrics=%d (want %d)\n%s", trace, last.Correct, last.Attempted, last.Failed, len(last.Metrics), len(want), out.String())
				}
				for _, d := range want {
					if _, ok := last.Metrics[d.Name]; !ok {
						t.Errorf("trace %s: metric %s missing", trace, d.Name)
					}
				}
			}
		})
	}
}
