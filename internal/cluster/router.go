package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/server"
	"repro/internal/vclock"
)

// Policy is a compatibility shim: the router once chose a read shard by
// policy; reads now route by tuple, through the partition map. The type
// and its one value survive only because bench/child.go (frozen by
// BENCHMARK.json) still sets Config.Policy; both go with the next
// benchmark PR.
type Policy int

// PolicyHash is the shim's only value; it selects nothing.
const PolicyHash Policy = 0

// Defaults for the router's knobs.
const (
	DefaultMaxInFlight   = 1024
	DefaultExchangeEvery = 5 * time.Second
	DefaultExportFloor   = 0.01
)

// Config parameterizes a Router. The zero value is usable.
type Config struct {
	// Policy is ignored. It exists only so bench/child.go keeps
	// compiling and goes with the next benchmark PR (see Policy).
	Policy Policy
	// AdmitRate and AdmitBurst shape the per-principal token bucket at
	// the router's door (queries/second, and a burst of at least 1), as
	// core.Config's QueryRate and QueryBurst do at a node's: AdmitRate
	// <= 0 means no limiter. delaydb's -rate and -burst set them.
	AdmitRate  float64
	AdmitBurst float64
	// MaxInFlight caps queries in flight across the whole cluster; at
	// the cap the router answers 429 without touching any shard.
	MaxInFlight int
	// Partitions is the partition count of the map every statement
	// routes by: each partition gets a replica group of owner shards
	// (assigned on the ring), point statements route to the tuple's
	// group alone, and scans scatter-gather across one live replica per
	// partition. 0 means full replication — every shard holds every
	// tuple — expressed as DefaultPartitions partitions whose replica
	// group is all the nodes (Replication is then ignored).
	Partitions int
	// Replication is the replica-group size per partition (clamped to
	// the node count); <= 1 means one owner per partition. With R > 1
	// single-key writes apply to every replica in the router's order
	// and ack when at least one readable replica confirms; point reads
	// fail over inside the group.
	Replication int
	// ShardTimeout bounds each router→shard RPC; a shard that exceeds
	// it counts as a peer error (down-latch) rather than pinning the
	// router's in-flight slots. 0 disables the per-RPC deadline.
	ShardTimeout time.Duration
	// Clock drives the limiter and the anti-entropy staleness gauge.
	// nil means the real clock.
	Clock vclock.Clock
}

// Router is the cluster front door. Create with NewRouter, mount via
// Handler.
type Router struct {
	nodes   []*Node
	cfg     Config
	h       http.Handler               // every route, recovery-wrapped
	public  http.Handler               // the public routes, recovery-wrapped
	metrics http.Handler               // the cluster_* instrument snapshot
	limit   *ratelimit.IdentityLimiter // nil: no per-principal limit

	// pmap is the live partition map, never nil. Only a migration's
	// cutover swaps it; readers load the pointer once per request and
	// every routing decision plus the final relay check against that
	// one map.
	pmap atomic.Pointer[PartitionMap]
	// schemas caches each table's primary-key column (tableKey), fed by
	// snooping CREATE TABLE and lazily by GET /admin/schema from a
	// shard; schemaMu serializes the lazy fetch.
	schemas  sync.Map
	schemaMu sync.Mutex

	inflight *metrics.Gauge

	// Write ordering: a single-key write holds its partition's fence
	// (lockPartition) — writes to different partitions run
	// concurrently, writes inside one partition (and the migrator's
	// fenced copy of it) serialize, so every replica of a partition
	// applies non-commutative writes in one (the router's) order. A
	// scatter write or a DDL broadcast holds partLocks exclusively,
	// serializing with every single-key write at once. Reads never take
	// these locks.
	partLocks sync.RWMutex
	partMu    []sync.Mutex

	// mig is the live migration (nil when none); migMu serializes
	// rebalance/CatchUpPeer admission, migLast keeps the last finished
	// run's progress for /healthz and GET /admin/rebalance.
	mig     atomic.Pointer[migration]
	migMu   sync.Mutex
	migLast atomic.Pointer[MigrationProgress]

	routed        *metrics.Counter
	readFailover  *metrics.Counter
	writeFanout   *metrics.Counter
	writeFanErr   *metrics.Counter
	writeDiverged *metrics.Counter
	admitRej      *metrics.Counter
	inflightRej   *metrics.Counter
	peerErrors    *metrics.Counter
	peerDown      *metrics.Gauge
	peerResync    *metrics.Gauge

	partSingleRead  *metrics.Counter
	partSingleWrite *metrics.Counter
	partScatter     *metrics.Counter
	// Of the rows a scatter read's legs brought back, how many it relayed:
	// a TopN over four legs fetches 4 × LIMIT to relay LIMIT.
	scatterFetched *metrics.Counter
	scatterRelayed *metrics.Counter
	partSplit      *metrics.Counter
	partVerRej     *metrics.Counter

	rpcTimeouts  *metrics.Counter
	readRetries  *metrics.Counter
	migPartsDone *metrics.Counter
	migTuples    *metrics.Counter

	ae struct {
		mu        sync.Mutex
		marks     []uint64
		lastRound time.Time
		stop      chan struct{}
		done      chan struct{}
	}
	aeRounds     *metrics.Counter
	aeBytes      *metrics.Counter
	aePrincipals *metrics.Counter
	aeRejected   *metrics.Counter
	aeErrors     *metrics.Counter
}

// NewRouter fronts the given shard nodes.
func NewRouter(nodes []*Node, cfg Config) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	names := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == nil || n.name == "" {
			return nil, errors.New("cluster: nil or unnamed node")
		}
		if names[n.name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.name)
		}
		names[n.name] = true
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	limit, err := core.NewLimiter(cfg.AdmitRate, cfg.AdmitBurst, cfg.Clock)
	if err != nil {
		return nil, err
	}

	// Full replication is the degenerate map: every node in every
	// partition's replica group.
	partitions, replication := cfg.Partitions, cfg.Replication
	if partitions <= 0 {
		partitions, replication = DefaultPartitions, len(nodes)
	}
	pm, err := NewPartitionMap(1, partitions, len(nodes), replication)
	if err != nil {
		return nil, err
	}
	r := &Router{
		nodes:  nodes,
		cfg:    cfg,
		limit:  limit,
		partMu: make([]sync.Mutex, partitions),
	}
	r.pmap.Store(pm)
	// The cluster_* instruments, served at the router's /metrics.
	m := metrics.NewRegistry()
	r.inflight = m.Gauge("cluster_inflight")
	r.routed = m.Counter("cluster_routed_total")
	r.readFailover = m.Counter("cluster_read_failovers_total")
	r.writeFanout = m.Counter("cluster_write_fanouts_total")
	r.writeFanErr = m.Counter("cluster_write_fanout_errors_total")
	r.writeDiverged = m.Counter("cluster_write_diverged_total")
	r.admitRej = m.Counter("cluster_admission_rejected_total")
	if limit != nil {
		limit.SetRejectionCounter(r.admitRej)
	}
	r.inflightRej = m.Counter("cluster_inflight_rejected_total")
	r.peerErrors = m.Counter("cluster_peer_errors_total")
	r.peerDown = m.Gauge("cluster_peer_down")
	r.peerResync = m.Gauge("cluster_peer_resync")
	r.partSingleRead = m.Counter("cluster_partition_single_reads_total")
	r.partSingleWrite = m.Counter("cluster_partition_single_writes_total")
	r.partScatter = m.Counter("cluster_partition_scatter_total")
	r.scatterFetched = m.Counter("cluster_scatter_rows_fetched_total")
	r.scatterRelayed = m.Counter("cluster_scatter_rows_relayed_total")
	r.partSplit = m.Counter("cluster_partition_split_inserts_total")
	r.partVerRej = m.Counter("cluster_partition_version_rejects_total")
	r.rpcTimeouts = m.Counter("cluster_rpc_timeouts_total")
	r.readRetries = m.Counter("cluster_read_retries_total")
	r.migPartsDone = m.Counter("cluster_migration_partitions_total")
	r.migTuples = m.Counter("cluster_migration_tuples_total")
	m.GaugeFunc("cluster_partitions", func() float64 { return float64(len(r.pmap.Load().Owners)) })
	r.aeRounds = m.Counter("cluster_antientropy_rounds_total")
	r.aeBytes = m.Counter("cluster_antientropy_sketch_bytes_total")
	r.aePrincipals = m.Counter("cluster_antientropy_principals_total")
	r.aeRejected = m.Counter("cluster_antientropy_rejected_total")
	r.aeErrors = m.Counter("cluster_antientropy_errors_total")
	m.GaugeFunc("cluster_nodes", func() float64 { return float64(len(nodes)) })
	// The shard transport's books, summed over the nodes: in steady
	// state the dial counter stands still and the idle pool holds one
	// connection per concurrent caller per shard.
	sumPeers := func(pick func(dials int64, idle int) int64) func() float64 {
		return func() float64 {
			var sum int64
			for _, n := range nodes {
				sum += pick(n.peerStats())
			}
			return float64(sum)
		}
	}
	m.GaugeFunc("cluster_peer_dials_total", sumPeers(func(dials int64, _ int) int64 { return dials }))
	m.GaugeFunc("cluster_peer_idle_conns", sumPeers(func(_ int64, idle int) int64 { return int64(idle) }))
	m.GaugeFunc("cluster_antientropy_merge_lag_seconds", r.mergeLag)
	r.ae.marks = make([]uint64, len(nodes))

	r.metrics = m.Handler()
	r.h, r.public = server.Mount(r, routerRoutes, m.Counter("cluster_panics_total"))
	return r, nil
}

// routerRoutes is every route Handler serves; the public ones are the
// front door, as on a shard (server.Routes), and the rest belong on an
// internal listener: they reveal the ranking, price plans for free, or
// change the partition map.
var routerRoutes = []server.Route[*Router]{
	{Pattern: "POST /query", Serve: (*Router).handleQuery, Public: true},
	{Pattern: "POST /register", Serve: (*Router).handleRegister, Public: true},
	{Pattern: "GET /healthz", Serve: (*Router).handleHealth, Public: true},
	{Pattern: "GET /stats", Serve: (*Router).handleStats, Public: true},
	{Pattern: "GET /metrics", Serve: (*Router).handleMetrics},
	{Pattern: "GET /admin/topk", Serve: (*Router).handleTopK},
	{Pattern: "GET /admin/suspects", Serve: (*Router).handleSuspectsAgg},
	{Pattern: "POST /admin/quote", Serve: (*Router).handleQuote},
	{Pattern: "GET /admin/partition-map", Serve: (*Router).handlePartitionMapGet},
	{Pattern: "GET /admin/rebalance", Serve: (*Router).handleRebalanceGet},
	{Pattern: "POST /admin/rebalance", Serve: (*Router).handleRebalancePost},
	{Pattern: "POST /admin/resync", Serve: (*Router).handleResync},
}

// RouterRoutes maps the pattern of every route a Router's Handler serves
// to whether its PublicHandler serves it too.
func RouterRoutes() map[string]bool { return server.Patterns(routerRoutes) }

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	r.metrics.ServeHTTP(w, req)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	r.proxyGet("/stats")(w, req)
}

func (r *Router) handleTopK(w http.ResponseWriter, req *http.Request) {
	r.proxyGet("/admin/topk")(w, req)
}

// Handler returns the router's HTTP handler, panic-recovery wrapped
// like a single node's front door: every route, the admin ones included.
func (r *Router) Handler() http.Handler { return r.h }

// PublicHandler returns the handler for the listener clients reach: the
// public routes of the table only (see routerRoutes).
func (r *Router) PublicHandler() http.Handler { return r.public }

// Nodes returns the routed shard set.
func (r *Router) Nodes() []*Node { return r.nodes }

// nodeIndex returns the index of the node called name, or -1.
func (r *Router) nodeIndex(name string) int {
	return slices.IndexFunc(r.nodes, func(n *Node) bool { return n.name == name })
}

// healthy returns the indices of peers eligible to serve reads: not
// latched down and not in writes-only resync.
func (r *Router) healthy() []int {
	out := make([]int, 0, len(r.nodes))
	for i, n := range r.nodes {
		if n.readable() {
			out = append(out, i)
		}
	}
	return out
}

// reachable returns the indices of peers on the write plane: everything
// not latched down, including resync peers — fan-out writes must keep
// reaching them or they fall further behind while awaiting resync.
func (r *Router) reachable() []int {
	out := make([]int, 0, len(r.nodes))
	for i, n := range r.nodes {
		if !n.down.Load() {
			out = append(out, i)
		}
	}
	return out
}

// syncPeerDown recounts the down/resync latch gauges after any latch
// change.
func (r *Router) syncPeerDown() {
	var down, resync int64
	for _, n := range r.nodes {
		if n.down.Load() {
			down++
		} else if n.resync.Load() {
			resync++
		}
	}
	r.peerDown.Set(down)
	r.peerResync.Set(resync)
}

// clientCall is the POST that forwards a client's request body to a
// shard's path under the principal the router resolved for it, so the
// shard charges the client whichever transport carries the call.
func clientCall(principal, path string, body []byte) *call {
	return &call{method: http.MethodPost, path: path, body: body, identity: principal}
}

// handleQuery is the router's door: the client's pinned map version is
// fenced first, so a stale client learns the new version without burning
// an admission token; the request is then read and refused as at a node
// (server.ServeQuery), admitted against the global in-flight cap and the
// per-principal bucket, both before any shard is touched, and routed.
func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	pm := r.pmap.Load()
	w.Header().Set("X-Partition-Version", strconv.FormatUint(pm.Version, 10))
	if pin := req.Header.Get("X-Partition-Version"); pin != "" {
		if v, perr := strconv.ParseUint(pin, 10, 64); perr != nil || v != pm.Version {
			r.writePartitionStale(w)
			return
		}
	}
	server.ServeQuery(w, req, func(buf *[]byte, q server.QueryRequest) error {
		// The cap is a reserve-then-check on the gauge itself (not a read
		// followed by a separate increment), so concurrent arrivals
		// cannot overshoot MaxInFlight.
		if cur := r.inflight.AddGet(1); cur > int64(r.cfg.MaxInFlight) {
			r.inflight.Dec()
			r.inflightRej.Inc()
			return fmt.Errorf("cluster %w (%d queries in flight)", server.ErrAtCapacity, cur-1)
		}
		defer r.inflight.Dec()
		principal := server.Identity(req)
		if principal == InitIdentity {
			server.WriteErr(w, http.StatusForbidden, fmt.Errorf("identity %q is the router's own", principal))
			return nil
		}
		if err := core.Admit(r.limit, principal); err != nil {
			return err
		}
		r.routed.Inc()
		r.servePartitioned(req.Context(), w, pm, q.SQL, clientCall(principal, "/query", *buf))
		return nil
	})
}

// handleRegister forwards a registration to the first readable shard
// and relays its answer. A registration is a throttle check
// (core.Shield.Register), not state to replicate: sent to every shard,
// one whose throttle refused while another's granted would look like a
// replica that missed a write.
func (r *Router) handleRegister(w http.ResponseWriter, req *http.Request) {
	server.ServeRegister(w, req, func(body []byte, _ string) error {
		if rep, ok := r.askAny(req.Context(), w, clientCall(server.Identity(req), "/register", body)); ok {
			relay(w, rep)
		}
		return nil
	})
}

// PeerHealth is one peer's entry in the router's /healthz body.
type PeerHealth struct {
	Name     string `json:"name"`
	Status   string `json:"status"`
	InFlight int64  `json:"in_flight"`
}

// HealthResponse is the router's /healthz body: "ok" with every peer
// up, "degraded" while any peer is latched down (unreachable) or
// resync (reachable, receiving writes, but out of the read path until
// POST /admin/resync re-copies what it missed). The cluster still
// serves either way — reads route around the hole, writes go to
// everything reachable. It also carries the map version,
// partition/replication shape, and the live (or last) migration
// progress, so operators and the torture harness share one readiness
// signal.
type HealthResponse struct {
	Status string       `json:"status"`
	Peers  []PeerHealth `json:"peers"`

	PartitionVersion uint64 `json:"partition_version"`
	Partitions       int    `json:"partitions"`
	Replication      int    `json:"replication"`
	// Migration reports the in-flight rebalance (or the last finished
	// one); nil when no rebalance has ever run.
	Migration *MigrationProgress `json:"migration,omitempty"`
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	pm := r.pmap.Load()
	out := HealthResponse{
		Status:           "ok",
		PartitionVersion: pm.Version,
		Partitions:       len(pm.Owners),
		Replication:      pm.replication(),
		Migration:        r.migrationProgress(),
	}
	for _, n := range r.nodes {
		st := "ok"
		switch {
		case n.down.Load():
			st = "down"
			out.Status = "degraded"
		case n.resync.Load():
			st = "resync"
			out.Status = "degraded"
		}
		out.Peers = append(out.Peers, PeerHealth{Name: n.name, Status: st, InFlight: n.inflight.Load()})
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// proxyGet forwards a GET (with its query string) to the first healthy
// shard — ?node=<name> pins a specific one. Shard-local diagnostics
// like /stats are per-replica; the pin lets operators walk the fleet.
func (r *Router) proxyGet(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var n *Node
		if want := req.URL.Query().Get("node"); want != "" {
			i := r.nodeIndex(want)
			if i < 0 {
				server.WriteErr(w, http.StatusNotFound, fmt.Errorf("unknown node %q", want))
				return
			}
			n = r.nodes[i]
		} else {
			h := r.healthy()
			if len(h) == 0 {
				server.WriteErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
				return
			}
			n = r.nodes[h[0]]
		}
		uri := path
		if raw := req.URL.Query(); len(raw) > 0 {
			raw.Del("node")
			if enc := raw.Encode(); enc != "" {
				uri += "?" + enc
			}
		}
		rep, err := r.rpc(req.Context(), n, &call{method: http.MethodGet, path: uri})
		if err != nil {
			server.WriteErr(w, http.StatusBadGateway, fmt.Errorf("shard %s unreachable: %w", n.name, err))
			return
		}
		relay(w, rep)
	}
}

// handleSuspectsAgg answers GET /admin/suspects with the cluster-wide
// coalition view: every reachable shard's suspect list merged by
// principal, keeping each principal's maximum escalation. A single
// shard's list only reflects the stream that shard saw — under
// partitioning (or identity rotation) that is a fraction of a
// coalition's activity, and an operator reading one shard would
// under-count exactly the adversaries the anti-entropy exchange exists
// to catch. ?node=<name> still pins one shard for per-replica
// inspection.
func (r *Router) handleSuspectsAgg(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("node") != "" {
		r.proxyGet("/admin/suspects")(w, req)
		return
	}
	k := 20
	if q := req.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > 10000 {
			server.WriteErr(w, http.StatusBadRequest, errors.New("k must be in [1, 10000]"))
			return
		}
		k = n
	}
	targets := r.reachable()
	if len(targets) == 0 {
		server.WriteErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
		return
	}
	effective := func(s detect.Suspect) float64 {
		if s.CoalitionCoverage > s.Coverage {
			return s.CoalitionCoverage
		}
		return s.Coverage
	}
	merged := make(map[string]detect.Suspect)
	enabled := false
	answered := 0
	for _, i := range targets {
		var sr server.SuspectsResponse
		if r.rpcJSON(req.Context(), r.nodes[i], http.MethodGet, "/admin/suspects?k="+strconv.Itoa(k), nil, &sr) != nil {
			continue
		}
		answered++
		enabled = enabled || sr.Enabled
		for _, s := range sr.Suspects {
			cur, ok := merged[s.Principal]
			if !ok || s.Multiplier > cur.Multiplier ||
				(s.Multiplier == cur.Multiplier && effective(s) > effective(cur)) {
				merged[s.Principal] = s
			}
		}
	}
	if answered == 0 {
		server.WriteErr(w, http.StatusBadGateway, errors.New("no shard answered"))
		return
	}
	out := make([]detect.Suspect, 0, len(merged))
	for _, s := range merged {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		ea, eb := effective(out[a]), effective(out[b])
		if ea != eb {
			return ea > eb
		}
		return out[a].Principal < out[b].Principal
	})
	if len(out) > k {
		out = out[:k]
	}
	server.WriteJSON(w, http.StatusOK, server.SuspectsResponse{Enabled: enabled, Suspects: out})
}
