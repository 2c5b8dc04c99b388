package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	delaydefense "repro"
	"repro/internal/cluster"
)

// benchClock is the shield's clock in every fixture. Sleeps return at
// once, so the charged delay comes back in the reply and is never served:
// wall latency is overhead only. Now stands still until start (called
// once the fixture is loaded) and then follows the wall clock from the
// end of the seeded history, so the update-rate policy's observation
// window covers that history and the traffic, never the load.
type benchClock struct {
	epoch   time.Time
	history time.Duration // how long the seeded history took at the open-loop rate
	started atomic.Int64  // wall UnixNano at start; 0 = not started
}

func newBenchClock(w *workload) *benchClock {
	return &benchClock{
		epoch:   time.Date(2004, 8, 30, 0, 0, 0, 0, time.UTC),
		history: time.Duration(float64(w.history) / w.openRate * float64(time.Second)),
	}
}

func (c *benchClock) start() { c.started.Store(time.Now().UnixNano()) }

func (c *benchClock) Now() time.Time {
	s := c.started.Load()
	if s == 0 {
		return c.epoch
	}
	return c.epoch.Add(c.history + time.Duration(time.Now().UnixNano()-s))
}

func (c *benchClock) Sleep(time.Duration) {}

func (c *benchClock) SleepCtx(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// topology is one assembled fixture: a front-door handler over one node
// or over a router and its shards, built only from the functions
// cmd/delaydb itself calls.
type topology struct {
	handler http.Handler
	dbs     []*delaydefense.DB
	router  *cluster.Router
	servers []*http.Server // shard listeners, loopback topologies only
	// shardAddrs is set when shards have their own listeners.
	shardAddrs []string
	clock      *benchClock
}

// seedHistory restores learned counts into every shield, as a restarted
// production node does with LoadLearnedCounts: what w.history statements
// of the workload's own traffic would have taught it, replayed from the
// statement generator rather than through the server. Without it a
// run would spend its few seconds inside the start-up transient, where
// over half of all reads find a never-seen tuple priced at the cap and
// the legit median flips between milliseconds and the cap. On the cluster
// a shard learns only the tuples it holds, and the replicas of a
// partition share its reads.
func (t *topology) seedHistory(w *workload, seed int64) error {
	reads := make([]float64, w.rows+1)
	updates := make([]float64, w.rows+1)
	src := newStream(w, seed, phaseHistory, 0, 1, keyPermutation(w.rows))
	for n := w.history; n > 0; n-- {
		switch st := src.next(); st.kind {
		case kPoint:
			reads[st.key]++
		case kRange:
			for k := st.key; k < st.key+int64(st.span); k++ {
				reads[k]++
			}
		case kTopN:
			for k := st.key; k < st.key+topNLimit; k++ {
				reads[k]++
			}
		case kUpdate:
			updates[st.key]++
		}
	}
	for i, db := range t.dbs {
		var ids []uint64
		var r, u []float64
		for key := 1; key <= w.rows; key++ {
			share := 1.0
			if t.router != nil {
				pm := t.router.CurrentPartitionMap()
				group := pm.GroupOf(pm.PartitionOf(int64(key)))
				if !slices.Contains(group, i) {
					continue
				}
				share = 1 / float64(len(group))
			}
			ids = append(ids, uint64(key))
			r = append(r, reads[key]*share)
			u = append(u, updates[key])
		}
		sh := db.Shield()
		if err := sh.LoadCounts(func() ([]uint64, []float64, error) { return ids, r, nil }); err != nil {
			return err
		}
		if up := sh.UpdatePolicy(); up != nil {
			if err := up.Tracker().Import(ids, u); err != nil {
				return err
			}
			up.SetWindow(t.clock.history.Seconds())
		}
	}
	return nil
}

// shardLink says how a cluster topology's router reaches its shards.
type shardLink int

const (
	linkLocal    shardLink = iota // cluster.NewLocalNode: in-process call
	linkLoopback                  // cluster.NewHTTPNode over 127.0.0.1
)

// newHTTPServer mirrors cmd/delaydb's http.Server settings.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
}

// openTopology opens (and, when load is set, creates and fills) the
// workload's fixture under dir.
func openTopology(w *workload, dir string, seed int64, link shardLink, load bool) (*topology, error) {
	t := &topology{clock: newBenchClock(w)}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	open := func(sub string) (http.Handler, error) {
		db, err := delaydefense.Open(filepath.Join(dir, sub), w.shieldConfig(t.clock), w.engineOptions()...)
		if err != nil {
			return nil, err
		}
		t.dbs = append(t.dbs, db)
		return db.HandlerWithDeadline(0)
	}
	if w.shards == 0 {
		h, err := open("node")
		if err != nil {
			return nil, err
		}
		t.handler = h
		if load {
			for _, sql := range w.loadStatements(seed) {
				if _, err := t.dbs[0].Exec(sql); err != nil {
					return nil, fmt.Errorf("loading %s: %w", w.name, err)
				}
			}
		}
	} else {
		var nodes []*cluster.Node
		for i := 0; i < w.shards; i++ {
			name := fmt.Sprintf("shard-%d", i)
			h, err := open(name)
			if err != nil {
				return nil, err
			}
			if link == linkLocal {
				nodes = append(nodes, cluster.NewLocalNode(name, h))
				continue
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv := newHTTPServer(h)
			t.servers = append(t.servers, srv)
			go srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at close
			t.shardAddrs = append(t.shardAddrs, ln.Addr().String())
			nodes = append(nodes, cluster.NewHTTPNode(name, "http://"+ln.Addr().String()))
		}
		// Admission is opened wide, as in internal/cluster/bench_test.go:
		// the edge limiter would correctly refuse a benchmark's rate.
		rt, err := cluster.NewRouter(nodes, cluster.Config{
			Policy:    cluster.PolicyHash,
			AdmitRate: 1e9, AdmitBurst: 1e9, MaxInFlight: 1 << 30,
			Partitions: w.partitions, Replication: w.replication,
		})
		if err != nil {
			return nil, err
		}
		t.router = rt
		t.handler = rt.Handler()
		if load {
			for _, sql := range w.loadStatements(seed) {
				if err := rt.ExecScript(sql); err != nil {
					return nil, fmt.Errorf("loading %s through the router: %w", w.name, err)
				}
			}
		}
		rt.StartAntiEntropy(cluster.DefaultExchangeEvery, cluster.DefaultExportFloor)
	}
	if load {
		if err := t.seedHistory(w, seed); err != nil {
			return nil, fmt.Errorf("seeding learned counts: %w", err)
		}
	}
	t.clock.start()
	ok = true
	return t, nil
}

// close stops the topology and closes its databases cleanly.
func (t *topology) close() error {
	if t.router != nil {
		t.router.StopAntiEntropy()
	}
	for _, srv := range t.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck // best effort; Close below is what must succeed
		cancel()
	}
	var first error
	for _, db := range t.dbs {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// childReady is the one line a server child prints once it accepts
// connections.
type childReady struct {
	Addr   string   `json:"addr"`
	Stats  string   `json:"stats"`
	Shards []string `json:"shards,omitempty"`
	// Owners maps partition → primary shard index (cluster only); the
	// parent uses it to price each tuple at the shard that serves it.
	Owners []int `json:"owners,omitempty"`
}

// childStats is the bench-owned endpoint's reply: what only the child
// can know about itself.
type childStats struct {
	CPUMicros    int64  `json:"cpu_us"` // user + system
	VmHWMKiB     int64  `json:"vm_hwm_kib"`
	VmRSSKiB     int64  `json:"vm_rss_kib"`
	Mallocs      uint64 `json:"mallocs"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	HeapSysBytes uint64 `json:"heap_sys_bytes"`
	DirBytes     int64  `json:"dir_bytes"`
	// CPUAtSlice maps a wall-clock slice index (see sliceLen) to the
	// process's user+system CPU in microseconds when that slice began.
	CPUAtSlice map[int64]int64 `json:"cpu_at_slice"`
}

// cpuMicros is this process's user plus system CPU so far.
func cpuMicros() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return (ru.Utime.Nano() + ru.Stime.Nano()) / 1e3, nil
}

// cpuSampler records the child's CPU at every slice boundary, so the
// parent can charge each slice of a window its own CPU without a request
// in flight during the measurement. It keeps the last five minutes.
type cpuSampler struct {
	mu      sync.Mutex
	atSlice map[int64]int64
}

func (c *cpuSampler) run(stop <-chan struct{}) {
	const keep = int64(5 * time.Minute / sliceLen)
	for {
		now := time.Now().UnixNano()
		next := (sliceIndex(now) + 1) * int64(sliceLen)
		select {
		case <-stop:
			return
		case <-time.After(time.Duration(next - now)):
		}
		cpu, err := cpuMicros()
		if err != nil {
			continue
		}
		i := sliceIndex(time.Now().UnixNano())
		c.mu.Lock()
		c.atSlice[i] = cpu
		delete(c.atSlice, i-keep)
		c.mu.Unlock()
	}
}

func (c *cpuSampler) snapshot() map[int64]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int64]int64, len(c.atSlice))
	for k, v := range c.atSlice {
		out[k] = v
	}
	return out
}

func readChildStats(dir string) (childStats, error) {
	cpu, err := cpuMicros()
	if err != nil {
		return childStats{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := childStats{
		CPUMicros: cpu, Mallocs: ms.Mallocs, NumGC: ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs, HeapSysBytes: ms.HeapSys,
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return childStats{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		for prefix, into := range map[string]*int64{"VmHWM:": &st.VmHWMKiB, "VmRSS:": &st.VmRSSKiB} {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				*into, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
				if err != nil {
					return childStats{}, fmt.Errorf("parsing %s %w", prefix, err)
				}
			}
		}
	}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			st.DirBytes += info.Size()
		}
		return err
	})
	return st, err
}

// serveChild is the server child: it assembles the workload's topology
// on 127.0.0.1:0, prints a childReady line, and serves until its stdin
// closes or it is signalled; then it drains and closes the data
// directory cleanly, as cmd/delaydb does on SIGTERM.
func serveChild(w *workload, dir string, seed int64, reopen bool, stdin io.Reader, stdout io.Writer) error {
	t, err := openTopology(w, dir, seed, linkLoopback, !reopen)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return err
	}
	statsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		t.close()
		return err
	}
	front := newHTTPServer(t.handler)
	sampler := &cpuSampler{atSlice: map[int64]int64{}}
	stopSampler := make(chan struct{})
	defer close(stopSampler)
	go sampler.run(stopSampler)
	statsSrv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("settle") {
			// Collect and hand every free page back first, so that VmRSS
			// is what the server holds, not what its last GC cycle left.
			debug.FreeOSMemory()
		}
		st, err := readChildStats(dir)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		st.CPUAtSlice = sampler.snapshot()
		json.NewEncoder(rw).Encode(st) //nolint:errcheck // the parent sees a short body
	})}
	serveErr := make(chan error, 2)
	go func() { serveErr <- front.Serve(ln) }()
	go func() { serveErr <- statsSrv.Serve(statsLn) }()

	ready := childReady{Addr: ln.Addr().String(), Stats: statsLn.Addr().String(), Shards: t.shardAddrs}
	if t.router != nil {
		ready.Owners = t.router.CurrentPartitionMap().Owners
	}
	line, err := json.Marshal(ready)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	stdinClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, stdin) //nolint:errcheck // any end of stdin means the parent is done
		close(stdinClosed)
	}()
	select {
	case err = <-serveErr:
	case <-sigCtx.Done():
	case <-stdinClosed:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	front.Shutdown(ctx)    //nolint:errcheck // in-flight requests are the parent's, and it has stopped
	statsSrv.Shutdown(ctx) //nolint:errcheck
	if cerr := t.close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing %s: %w", dir, cerr)
	}
	return err
}
