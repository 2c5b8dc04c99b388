package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/parthash"
	"repro/internal/zipf"
)

// child is one running server child.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	ready childReady
	dir   string
}

// startChild re-executes this binary as the workload's server child and
// waits until it accepts connections. The returned duration is the whole
// of set-up as a user meets it: process start, open, create, load, listen.
func startChild(w *workload, div int, dir string, seed int64, reopen bool) (*child, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-serve", w.name, "-dir", dir, "-seed", fmt.Sprint(seed), "-div", fmt.Sprint(div)}
	if reopen {
		args = append(args, "-reopen")
	}
	t0 := time.Now()
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, stdin: stdin, dir: dir}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &c.ready)
	}
	if err != nil {
		cmd.Process.Kill() //nolint:errcheck // already failing; Wait reaps it
		cmd.Wait()         //nolint:errcheck
		return nil, 0, fmt.Errorf("server child for %s did not come up: %w", w.name, err)
	}
	return c, time.Since(t0), nil
}

// stop asks the child to drain and close its data directory, and waits
// for it to exit.
func (c *child) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		c.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // the wait below reports the outcome
		<-done
		return fmt.Errorf("server child did not exit within 30s and was killed")
	}
}

var adminClient = &http.Client{Timeout: time.Minute}

func getJSON(url string, out any) error {
	resp, err := adminClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// stats asks the child for its statistics; settle has it collect and
// return its free memory to the system first.
func (c *child) stats(settle bool) (childStats, error) {
	url := "http://" + c.ready.Stats + "/"
	if settle {
		url += "?settle"
	}
	var st childStats
	err := getJSON(url, &st)
	return st, err
}

// counters is a /metrics snapshot reduced to its plain numbers; on the
// cluster, the router's registry plus the sum over the shards'.
type counters map[string]float64

func (c *child) counters() (counters, error) {
	sum := counters{}
	for _, addr := range append([]string{c.ready.Addr}, c.ready.Shards...) {
		var m map[string]any
		if err := getJSON("http://"+addr+"/metrics", &m); err != nil {
			return nil, err
		}
		for k, v := range m {
			if f, ok := v.(float64); ok {
				sum[k] += f
			}
		}
	}
	return sum, nil
}

// quoteMillis prices the retrieval of ids without perturbing what the
// server has learned: POST /admin/quote in the endpoint's 10,000-id
// batches. On the cluster each tuple is priced at its partition's
// primary, the shard that serves it, and the shards' quotes are summed.
func (c *child) quoteMillis(ids []uint64) (float64, error) {
	byAddr := map[string][]uint64{c.ready.Addr: ids}
	if len(c.ready.Shards) > 0 {
		byAddr = map[string][]uint64{}
		for _, id := range ids {
			addr := c.ready.Shards[c.ready.Owners[parthash.Index(int64(id), len(c.ready.Owners))]]
			byAddr[addr] = append(byAddr[addr], id)
		}
	}
	var millis float64
	for addr, owned := range byAddr {
		for len(owned) > 0 {
			n := min(len(owned), 10_000)
			body, err := json.Marshal(map[string][]uint64{"ids": owned[:n]})
			if err != nil {
				return 0, err
			}
			resp, err := adminClient.Post("http://"+addr+"/admin/quote", "application/json", bytes.NewReader(body))
			if err != nil {
				return 0, err
			}
			var q struct {
				DelayMillis float64 `json:"delay_millis"`
				Error       string  `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&q)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("POST %s/admin/quote: HTTP %d %s %v", addr, resp.StatusCode, q.Error, err)
			}
			millis += q.DelayMillis
			owned = owned[n:]
		}
	}
	return millis, nil
}

// runSpec is one benchmark run of one workload.
type runSpec struct {
	w       *workload
	div     int // fixture divisor; 1 except in smoke mode
	seed    int64
	seconds float64 // closed-loop plus open-loop window
	trace   bool
	replay  int // statements the traced run replays
	outDir  string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes carries sample counts, the percentile actually reported, the
	// first few failures and each layer's share of replayed time.
	Notes []string `json:"notes,omitempty"`

	lagShare float64 // traced run: p90 generator lag over the central read mean, for the guard
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *runResult) account(phase string, p *phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, e := range p.errs {
		r.notef("%s failure: %s", phase, e)
	}
}

// setupRepeats is how many times an untraced run sets the fixture up;
// setup_s is the median, so one slow fork or page-cache miss does not
// decide it.
const setupRepeats = 3

// warmShare is the warm-up's length as a share of the measured seconds,
// at the workload's open-loop rate; it is a statement count, not a time,
// so the state the quotes are taken in does not depend on speed.
const warmShare = 0.15

func (s runSpec) run() (*runResult, error) {
	w := s.w.scaled(s.div)
	res := &runResult{Workload: w.name, Seed: s.seed, Trace: s.trace, Metrics: map[string]metric{}}
	root := filepath.Join(s.outDir, fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(root)

	// Set-up: the last child is the one that is measured against.
	repeats := setupRepeats
	if s.trace {
		repeats = 1
	}
	var ch *child
	var setups []float64
	for i := 0; i < repeats; i++ {
		if ch != nil {
			if err := ch.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(ch.dir)
		}
		var took time.Duration
		var err error
		ch, took, err = startChild(s.w, s.div, filepath.Join(root, fmt.Sprint(i)), s.seed, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if ch != nil {
			ch.stop() //nolint:errcheck // only reached on an earlier error
		}
	}()
	res.set("setup_s", median(setups), "s")

	nconn := runtime.NumCPU()
	workers, err := newWorkers(w, s.seed, ch.ready.Addr, nconn)
	if err != nil {
		return nil, err
	}
	defer closeWorkers(workers)
	perm := keyPermutation(w.rows)

	warmOps := int(warmShare*s.seconds*w.openRate) / nconn
	res.account("warm-up", closedLoop(workers, perm, phaseWarm, 0, warmOps))

	// Up to here the server has seen a statement sequence fixed by the
	// seed alone (the warm-up is a count, not a time), so what it quotes
	// does not move with how fast this machine is.
	window := time.Duration(s.seconds * float64(time.Second))
	if s.trace {
		// The traced run splits its time: an open loop for the
		// schedule-driven latencies, a closed loop for the counts.
		window /= 2
		open := openLoop(workers, perm, window)
		res.account("open loop", open)
		s.openMetrics(res, open)
	} else if err := s.productMetrics(res, ch, w, perm, workers); err != nil {
		return nil, err
	}

	before, err := s.snapshot(ch, !s.trace)
	if err != nil {
		return nil, err
	}
	closed := closedLoop(workers, perm, phaseClosed, window, 0)
	after, err := s.snapshot(ch, false)
	if err != nil {
		return nil, err
	}
	res.account("closed loop", closed)
	if len(closed.samples) == 0 {
		return nil, fmt.Errorf("%s: the closed loop got no valid reply: %v", w.name, closed.errs)
	}
	if !s.trace {
		s.closedMetrics(res, w, closed, before.stats, after.stats)
	}

	if s.trace {
		s.layerCounts(res, w, before, after, closed)
		if err := s.tracedRun(res, ch, w, workers); err != nil {
			return nil, err
		}
	} else {
		if w.wal {
			// A clean close and reopen: every acknowledged write must
			// have reached the data directory, not just the process.
			dir := ch.dir
			err := ch.stop()
			ch = nil
			if err != nil {
				return nil, err
			}
			if ch, _, err = startChild(s.w, s.div, dir, s.seed, true); err != nil {
				return nil, err
			}
			for _, wk := range workers {
				if err := wk.redial(ch.ready.Addr); err != nil {
					return nil, err
				}
			}
		}
		verify := verifyPass(workers)
		res.account("verify", verify)
		res.notef("verify pass re-read %d written keys, %d mismatches", verify.attempted, verify.failed)
		res.set("ok_ratio", 1-float64(res.Failed)/float64(res.Attempted), "ratio")
	}
	err = ch.stop()
	ch = nil
	return res, err
}

// openMetrics reports the traced run's open loop over its whole window,
// every request timed from when it was due: the median and the p99 (or
// the highest percentile with ten samples beyond it) per class, and how
// late the generator sent. These are per-layer metrics, without a bound:
// at a quarter of the closed-loop rate the server is mostly idle, every
// request pays two wake-ups of a parked thread, and on a shared VM those
// swing by tens of percent between runs of the same code.
func (s runSpec) openMetrics(res *runResult, open *phaseResult) {
	var readNs, writeNs, lagNs []int64
	for _, sm := range open.samples {
		if sm.write {
			writeNs = append(writeNs, sm.latNs)
		} else {
			readNs = append(readNs, sm.latNs)
		}
		if sm.lagNs >= 0 {
			lagNs = append(lagNs, sm.lagNs)
		}
	}
	var readP50 int64
	for _, class := range []struct {
		name string
		ns   []int64
	}{{"read", readNs}, {"write", writeNs}} {
		sorted := sortedCopy(class.ns)
		p50, _ := percentile(sorted, 0.50)
		p99, used := percentile(sorted, 0.99)
		res.set("openloop."+class.name+"_p50_us", float64(p50)/1e3, "us")
		res.set("openloop."+class.name+"_p99_us", float64(p99)/1e3, "us")
		res.notef("open loop, %s: %d samples from due time; p50 %.1f us, p%.4g %.1f us", class.name, len(sorted), float64(p50)/1e3, used*100, float64(p99)/1e3)
		if class.name == "read" {
			readP50 = p50
		}
	}
	sortedLag := sortedCopy(lagNs)
	p99, used := percentile(sortedLag, 0.99)
	p90, _ := percentile(sortedLag, 0.90)
	res.set("loadgen.lag_p99_us", float64(p99)/1e3, "us")
	// The guard is on the p90 lag: nine sends in ten must be on time for
	// the median to be the server's.
	res.lagShare = float64(p90) / float64(max(readP50, 1))
	res.notef("loadgen.lag over %d slept-for sends: p90 %.1f us = %.1f%% of the read p50; p%.4g %.1f us", len(lagNs), float64(p90)/1e3, 100*res.lagShare, used*100, float64(p99)/1e3)
}

// maxProbes bounds the per-tuple quotes behind legit_delay_p50_ms.
const maxProbes = 300

// productMetrics reports what the defence buys, beside its cost and never
// added to it: the injected delay a legit user's median request meets,
// and the price of extracting everything. Both are quoted, not sampled
// from replies. The median of a Zipf request stream sits where the rank
// CDF is flat and delay grows with rank cubed, so a sampled median moves
// by a third between seeds. Instead the tuples ranked m/2..2m, m being the
// exact median request rank, are quoted one by one and the geometric mean
// taken, which no single tuple's or shard's luck decides.
func (s runSpec) productMetrics(res *runResult, ch *child, w *workload, perm []int32, workers []*worker) error {
	dist, err := zipf.New(w.rows, w.zipfAlpha)
	if err != nil {
		return err
	}
	m := dist.MedianRank()
	lo, hi := max(1, m/2), min(w.rows, 2*m)
	stride := (hi-lo)/maxProbes + 1
	var logSum float64
	var probes int
	for r := lo; r <= hi; r += stride {
		millis, err := ch.quoteMillis([]uint64{uint64(perm[r-1])})
		if err != nil {
			return err
		}
		logSum += math.Log(max(millis, 1e-6))
		probes++
	}
	res.set("legit_delay_p50_ms", math.Exp(logSum/float64(probes)), "ms")
	res.notef("legit_delay_p50_ms: geometric mean quote of %d tuples ranked %d..%d (median request rank %d)", probes, lo, hi, m)
	millis, err := ch.quoteMillis(liveIDs(w, workers))
	if err != nil {
		return err
	}
	res.set("extract_quote_hours", millis/3.6e6, "h")
	return nil
}

// closedMetrics reports the closed loop over its quiet quarter, at the
// reference machine speed.
//
// The quiet quarter is the quarter of the window's slices with the most
// valid replies. Throughput is theirs, the CPU is what the child spent in
// exactly those slices, and the latencies are those of the statements sent
// in them: per class the mean of the central 80%, and over both classes
// the mean of the slowest tenth without the slowest hundredth. Means,
// because the latency of a statement mix is multimodal (a scan of 10 rows
// or of 1000; a write that queued behind a scan or did not) and a
// percentile that falls between two modes jumps from one to the other
// between runs.
//
// The machine speed is the CPU time the load generator's own threads
// spent per round trip in those slices, inside the socket calls that send
// the request and receive the reply: work this benchmark fixes, on the
// cores and at the moments the server ran. The reference box changes
// state for minutes at a time; in its slow state everything that goes
// through the kernel, the generator's calls and the server's alike, costs
// a fifth more. Every time is scaled by the workload's frozen reference
// cost over the measured one (and the throughput by the inverse), so a run
// reads as it would have with the machine in its reference state.
func (s runSpec) closedMetrics(res *runResult, w *workload, closed *phaseResult, before, st childStats) {
	first, slices := sliced(closed.samples)
	scores := make([]float64, len(slices))
	for i, sl := range slices {
		scores[i] = -float64(len(sl))
	}
	var quiet []sample
	var kept, cpuReplies, cpuMicros int64
	for i, keep := range quietest(scores, quietShare) {
		if !keep {
			continue
		}
		kept++
		quiet = append(quiet, slices[i]...)
		from, ok1 := st.CPUAtSlice[first+int64(i)]
		to, ok2 := st.CPUAtSlice[first+int64(i)+1]
		if ok1 && ok2 {
			cpuReplies += int64(len(slices[i]))
			cpuMicros += to - from
		}
	}
	whole := float64(len(closed.samples)) / closed.elapsed.Seconds()
	qps, cpuPerQuery := float64(len(quiet))/(float64(kept)*sliceLen.Seconds()), float64(cpuMicros)/float64(cpuReplies)
	if cpuReplies == 0 {
		// A window too short to slice, or one the child's sampler missed:
		// fall back to the whole window.
		quiet = closed.samples
		qps, cpuPerQuery = whole, float64(st.CPUMicros-before.CPUMicros)/float64(len(quiet))
	}
	var readNs, writeNs, allNs []int64
	var genCPUNs float64
	for _, sm := range quiet {
		genCPUNs += float64(sm.genCPUNs)
		allNs = append(allNs, sm.latNs)
		if sm.write {
			writeNs = append(writeNs, sm.latNs)
		} else {
			readNs = append(readNs, sm.latNs)
		}
	}
	genCPUUs := genCPUNs / 1e3 / float64(len(quiet))
	toRef := w.refGenCPUUs / genCPUUs // what a time measured now is at reference speed

	res.set("throughput_qps", qps/toRef, "1/s")
	res.set("cpu_us_per_query", cpuPerQuery*toRef, "us")
	reads, writes, all := sortedCopy(readNs), sortedCopy(writeNs), sortedCopy(allNs)
	res.set("read_tmean_us", trimmedMean(reads, 0.10, 0.90)/1e3*toRef, "us")
	res.set("write_tmean_us", trimmedMean(writes, 0.10, 0.90)/1e3*toRef, "us")
	res.set("tail_us", trimmedMean(all, 0.90, 0.99)/1e3*toRef, "us")
	// Memory is read where the work done so far is fixed by the seed,
	// after set-up, warm-up and quotes, and once the child has collected
	// and returned its free pages. The peak moves with when the collector
	// happened to run during the load, and by the end of a timed window it
	// has grown with the statements served (write_mix doubles its rows),
	// that is, with the speed of the machine.
	res.set("rss_settled_mb", float64(before.VmRSSKiB)/1024, "MiB")
	res.notef("the child's peak RSS: %.1f MiB after set-up, %.1f MiB when the closed loop ended", float64(before.VmHWMKiB)/1024, float64(st.VmHWMKiB)/1024)

	res.notef("closed loop: %d valid replies in %.2fs (%.1f/s over the whole window); quiet quarter = %d of %d slices", len(closed.samples), closed.elapsed.Seconds(), whole, kept, len(slices))
	res.notef("machine speed: the generator spent %.3f us of CPU per round trip, the reference is %.3f: times are scaled by %.4f", genCPUUs, w.refGenCPUUs, toRef)
	res.notef("as measured, before scaling: %.1f replies/s, %.2f us of server CPU per reply", qps, cpuPerQuery)
	for _, class := range []struct {
		name   string
		sorted []int64
	}{{"read", reads}, {"write", writes}} {
		p50, _ := percentile(class.sorted, 0.50)
		p99, used := percentile(class.sorted, 0.99)
		res.notef("as measured, %s latency: %d samples in the quiet quarter; central mean %.1f us, p50 %.1f us, p%.4g %.1f us", class.name, len(class.sorted),
			trimmedMean(class.sorted, 0.10, 0.90)/1e3, float64(p50)/1e3, used*100, float64(p99)/1e3)
	}
}

// snap is the child's state at one edge of the closed-loop window.
type snap struct {
	stats           childStats
	counters        counters
	parentCPUMicros int64 // the load generator's own CPU so far
}

func (s runSpec) snapshot(ch *child, settle bool) (snap, error) {
	var sn snap
	var err error
	if sn.stats, err = ch.stats(settle); err != nil {
		return sn, err
	}
	if s.trace {
		if sn.counters, err = ch.counters(); err != nil {
			return sn, err
		}
	}
	sn.parentCPUMicros, err = cpuMicros()
	return sn, err
}
