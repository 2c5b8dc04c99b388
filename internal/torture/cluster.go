// cluster.go is the shard-kill torture harness: a one-process cluster
// of chaos shards on loopback sockets under a replicated partition map (R=2 by default; R=N
// is full replication) driven through a scripted sequence of fault windows — RPC error/latency/torn-body
// injection, whole-shard kills, a rebalance raced against a kill — with
// a deterministic read/write workload running throughout. The shadow
// state tracks, per key, the last ACKED write and the last ATTEMPTED
// write; the invariants checked after every recovery are the cluster's
// contract:
//
//   - no acked write is ever lost: a point read of an acked key returns
//     a value at least as new as the last ack (unacked attempts may or
//     may not have applied — both are legal);
//   - reads stay available around a single dead shard (R>=2 failover),
//     with unavailability bounded, never total;
//   - detection sketches reconverge after a kill/revive cycle: once the
//     revived shard rejoins the exchange, a catalog-spanning scan
//     escalates on EVERY shard, including the one that missed it;
//   - a rebalance raced against a shard kill either completes or rolls
//     back cleanly — GET /admin/rebalance never reports a stuck
//     migration, and the data plane stays correct either way.
package torture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/vclock"
)

// ClusterConfig bounds a cluster torture run.
type ClusterConfig struct {
	// Shards is the cluster size (default 4).
	Shards int
	// Partitions is the partition-map size (default 16).
	Partitions int
	// Replication is the replica-group size (default 2).
	Replication int
	// SeedTuples is the initial dataset loaded through the router
	// (default 96).
	SeedTuples int
	// Ops is the per-phase workload length (default 40); fault and kill
	// phases run 2×Ops.
	Ops int
	// Seed drives the workload PRNG and the fault registry (default 1).
	Seed int64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *ClusterConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Partitions <= 0 {
		c.Partitions = 16
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.SeedTuples <= 0 {
		c.SeedTuples = 96
	}
	if c.Ops <= 0 {
		c.Ops = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// ClusterResult reports what a cluster torture run covered.
type ClusterResult struct {
	Ops         int      // workload operations issued
	Reads       int      // point reads issued
	Writes      int      // write statements issued
	Acked       int      // writes acknowledged by the router
	Splits      int      // split INSERTs issued: three fresh keys in one statement
	SplitsAcked int      // split INSERTs acknowledged by the router
	Unavailable int      // operations answered 5xx during fault windows
	Kills       int      // shard kill/revive cycles
	Rebalances  int      // migrations attempted
	Violations  []string // invariant violations, empty on success
}

// keyShadow is the per-key shadow state: counters embedded in the cell
// value (`v<key>_<counter>`) totally order every write to the key.
// acked == -1 marks a key whose insert was never acknowledged — it may
// legally be absent.
type keyShadow struct {
	acked     int
	attempted int
}

// clusterHarness owns the cluster under torture and the shadow state.
type clusterHarness struct {
	cfg     ClusterConfig
	r       *cluster.Router
	h       http.Handler
	shields []*core.Shield
	chaos   []*cluster.Chaos
	names   []string
	rng     *rand.Rand

	state   map[int]*keyShadow
	keys    []int // acked keys, insertion order (update/read targets)
	nextKey int
	phase   string

	res *ClusterResult
}

// RunCluster builds the cluster under dir and drives the full scripted
// torture sequence. The returned result carries every invariant
// violation; err is reserved for harness setup/teardown failures.
func RunCluster(dir string, cfg ClusterConfig) (*ClusterResult, error) {
	cfg.fill()
	h := &clusterHarness{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		state: make(map[int]*keyShadow),
		res:   &ClusterResult{},
	}
	defer fault.Disable()

	// Build the shards: WAL-enabled engines under dir, each behind its
	// own shield and HTTP surface, each on a killable transport.
	det := &detect.Config{
		Policy: detect.EscalationPolicy{Grace: 0.60, Cap: 8},
	}
	// Catalog sized so the finale's full-table scan clears the 60%
	// escalation grace with margin even before any insert lands.
	catalogN := cfg.SeedTuples + cfg.SeedTuples/2
	nodes := make([]*cluster.Node, cfg.Shards)
	h.shields = make([]*core.Shield, cfg.Shards)
	h.chaos = make([]*cluster.Chaos, cfg.Shards)
	h.names = make([]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		db, err := engine.Open(sub)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
			return nil, err
		}
		shield, err := core.New(db, core.Config{
			N: catalogN, Alpha: 1, Beta: 1, Cap: time.Millisecond,
			Clock:                vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
			Detect:               det,
			RegistrationInterval: time.Second,
		})
		if err != nil {
			return nil, err
		}
		srv, err := server.New(shield)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("shard-%d", i)
		node, ch := cluster.NewChaosNode(name, srv.Handler())
		defer node.Close() // before the deferred db.Close above
		nodes[i] = node
		h.shields[i] = shield
		h.chaos[i] = ch
		h.names[i] = name
	}
	r, err := cluster.NewRouter(nodes, cluster.Config{
		Partitions:  cfg.Partitions,
		Replication: cfg.Replication,
		// The workload is one sequential client far above any realistic
		// per-principal rate; admission throttling is not under test.
		AdmitRate: 1e6, AdmitBurst: 1e6,
		ShardTimeout: 2 * time.Second,
		Clock:        vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		return nil, err
	}
	h.r = r
	h.h = r.Handler()

	// Seed tuples 1..SeedTuples through the router's own planner, so
	// each lands on its owner group. Counter 0 = the seed write.
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := 1; i <= cfg.SeedTuples; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'v%d_0')", i, i)
	}
	if err := r.ExecScript(sb.String()); err != nil {
		return nil, fmt.Errorf("seeding: %w", err)
	}
	for i := 1; i <= cfg.SeedTuples; i++ {
		h.state[i] = &keyShadow{acked: 0, attempted: 0}
		h.keys = append(h.keys, i)
	}
	h.nextKey = cfg.SeedTuples + 1

	h.runScript()
	return h.res, nil
}

// violatef records one invariant violation, capped like the crash
// harness so a systemic failure doesn't drown the report.
func (h *clusterHarness) violatef(format string, args ...any) {
	if len(h.res.Violations) < maxViolations {
		h.res.Violations = append(h.res.Violations, fmt.Sprintf(format, args...))
	}
}

// runScript is the torture timeline. Every phase ends in a recovery +
// full shadow verification, so a violation pins to the phase that
// caused it.
func (h *clusterHarness) runScript() {
	cfg := h.cfg
	logf := cfg.Logf

	logf("phase 1: baseline workload (%d ops, no faults)", cfg.Ops)
	h.phase = "baseline"
	h.workload(cfg.Ops, false)
	h.verifyAll("baseline")

	logf("phase 2: RPC fault window (%d ops: latency/error/torn + fan-out errors)", 2*cfg.Ops)
	fault.Enable(fault.NewRegistry(uint64(cfg.Seed)).
		Add(fault.Rule{Site: fault.ClusterRPC, Kind: fault.Latency, P: 0.20, Latency: 200 * time.Microsecond}).
		Add(fault.Rule{Site: fault.ClusterRPC, Kind: fault.Error, P: 0.05}).
		Add(fault.Rule{Site: fault.ClusterRPC, Kind: fault.Torn, P: 0.03, TornBytes: 7}).
		Add(fault.Rule{Site: fault.ClusterFanout, Kind: fault.Error, P: 0.05}))
	h.phase = "rpc-faults"
	h.workload(2*cfg.Ops, true)
	fault.Disable()
	h.recover("rpc-faults")
	h.verifyAll("rpc-faults")

	k1 := h.rng.Intn(cfg.Shards)
	logf("phase 3: kill %s mid-workload (%d ops)", h.names[k1], 2*cfg.Ops)
	h.chaos[k1].Kill()
	h.res.Kills++
	h.phase = "kill"
	failed := h.workload(2*cfg.Ops, true)
	// R>=2 failover: with one dead shard every partition keeps a live
	// replica, so unavailability must stay bounded, never total.
	if failed > cfg.Ops {
		h.violatef("kill %s: %d of %d ops failed — failover did not bound unavailability", h.names[k1], failed, 2*cfg.Ops)
	}
	h.chaos[k1].Revive()
	h.recover("kill-revive")
	h.verifyAll("kill-revive")

	k2 := (k1 + 1) % cfg.Shards
	logf("phase 4: rebalance raced against killing %s", h.names[k2])
	h.chaos[k2].Kill()
	h.res.Kills++
	h.rebalance(false)
	h.phase = "rebalance-mid-kill"
	h.workload(cfg.Ops, true)
	h.chaos[k2].Revive()
	h.recover("rebalance-mid-kill")
	h.verifyAll("rebalance-mid-kill")

	logf("phase 5: rebalance with the cluster healthy (must complete)")
	h.rebalance(true)
	h.phase = "rebalance-clean"
	h.workload(cfg.Ops, false)
	h.verifyAll("rebalance-clean")

	logf("phase 6: sketch reconvergence after revival")
	h.checkSketchConvergence()

	logf("cluster torture: %d ops (%d reads, %d writes, %d acked, %d of %d split INSERTs acked), %d kills, %d rebalances, %d unavailable, %d violations",
		h.res.Ops, h.res.Reads, h.res.Writes, h.res.Acked, h.res.SplitsAcked, h.res.Splits,
		h.res.Kills, h.res.Rebalances, h.res.Unavailable, len(h.res.Violations))
}

// serve drives one request through the router: payload, when non-nil,
// goes as a JSON body, and principal, when set, as the X-Identity.
func (h *clusterHarness) serve(method, path, principal string, payload any) (int, string) {
	var body io.Reader
	if payload != nil {
		b, _ := json.Marshal(payload)
		body = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, "http://router"+path, body)
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if principal != "" {
		req.Header.Set("X-Identity", principal)
	}
	rec := httptest.NewRecorder()
	h.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// query drives one statement through the router as the given principal.
func (h *clusterHarness) query(principal, sql string) (int, server.QueryResponse, string) {
	code, body := h.serve(http.MethodPost, "/query", principal, server.QueryRequest{SQL: sql})
	var qr server.QueryResponse
	if code == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &qr); err != nil {
			// A 200 whose body dies mid-stream (the cluster.rpc torn
			// fault relayed through the router, exactly what a client
			// sees when the connection drops mid-reply): the outcome is
			// unknowable, which for a write means ack-unknown — report
			// it as the transport failure it is, not as a decoded zero.
			return 0, qr, body
		}
	}
	return code, qr, body
}

// transientStatus reports whether a failure is a legal transient during
// a fault window: unavailability (5xx), admission (429), a
// partition-map race (409), or a reply torn below HTTP (code 0).
// Anything else — 400s especially — is a router bug, faults or not.
func transientStatus(code int) bool {
	return code >= 500 || code < 100 ||
		code == http.StatusTooManyRequests || code == http.StatusConflict
}

// workload runs n deterministic operations (50% point reads, 30%
// updates, 10% one-row inserts, 10% three-row inserts the router splits
// across partitions) and returns how many failed with a transient
// status. lenient permits transients; outside fault windows every
// operation must succeed.
func (h *clusterHarness) workload(n int, lenient bool) (failed int) {
	for i := 0; i < n; i++ {
		h.res.Ops++
		principal := fmt.Sprintf("client-%d", h.rng.Intn(4))
		switch roll := h.rng.Float64(); {
		case roll < 0.50:
			if !h.pointRead(principal, h.keys[h.rng.Intn(len(h.keys))], lenient, "workload") {
				failed++
			}
		case roll < 0.80:
			if !h.update(principal, h.keys[h.rng.Intn(len(h.keys))], lenient) {
				failed++
			}
		case roll < 0.90:
			if !h.insert(principal, 1, lenient) {
				failed++
			}
		default:
			if !h.insert(principal, 3, lenient) {
				failed++
			}
		}
	}
	return failed
}

// pointRead reads one key through the router and checks the value
// against the shadow: at least as new as the last ack, no newer than
// the last attempt. Returns false on a (legal, counted) transient.
func (h *clusterHarness) pointRead(principal string, key int, lenient bool, phase string) bool {
	h.res.Reads++
	code, qr, body := h.query(principal, fmt.Sprintf(`SELECT v FROM items WHERE id = %d`, key))
	if code != http.StatusOK {
		if !lenient || !transientStatus(code) {
			h.violatef("%s: read key %d: HTTP %d: %s", phase, key, code, body)
		}
		h.res.Unavailable++
		return false
	}
	st := h.state[key]
	if len(qr.Rows) == 0 {
		if st.acked >= 0 {
			h.violatef("%s: acked key %d missing (acked counter %d)", phase, key, st.acked)
		}
		return true
	}
	c, err := parseShadowValue(qr.Rows[0][0], key)
	if err != nil {
		h.violatef("%s: key %d: %v", phase, key, err)
		return true
	}
	if st.acked >= 0 && c < st.acked {
		h.violatef("%s: key %d read counter %d, older than last ack %d — acked write lost", phase, key, c, st.acked)
	}
	if c > st.attempted {
		h.violatef("%s: key %d read counter %d beyond last attempt %d", phase, key, c, st.attempted)
	}
	return true
}

// update attempts the next write to an existing acked key.
func (h *clusterHarness) update(principal string, key int, lenient bool) bool {
	st := h.state[key]
	h.res.Writes++
	c := st.attempted + 1
	st.attempted = c
	code, qr, body := h.query(principal,
		fmt.Sprintf(`UPDATE items SET v = 'v%d_%d' WHERE id = %d`, key, c, key))
	switch {
	case code == http.StatusOK:
		if qr.Affected == 0 {
			// The router acked an update that matched no row on any
			// readable replica: the tuple is gone.
			h.violatef("%s: update key %d acked with 0 rows affected — acked tuple lost", h.phase, key)
			return true
		}
		st.acked = c
		h.res.Acked++
		return true
	case lenient && transientStatus(code):
		h.res.Unavailable++
		return false
	default:
		h.violatef("%s: update key %d: HTTP %d: %s", h.phase, key, code, body)
		return false
	}
}

// insert attempts rows brand-new keys in one statement — with more than
// one row, a split INSERT whose keys land on different partitions. The
// shadow is per key: an unacked insert may have applied to any subset of
// its keys, and each is allowed to be absent forever (acked = -1).
func (h *clusterHarness) insert(principal string, rows int, lenient bool) bool {
	keys := make([]int, rows)
	values := make([]string, rows)
	for i := range keys {
		keys[i] = h.nextKey
		h.nextKey++
		values[i] = fmt.Sprintf("(%d, 'v%d_1')", keys[i], keys[i])
	}
	h.res.Writes++
	if rows > 1 {
		h.res.Splits++
	}
	code, _, body := h.query(principal, "INSERT INTO items VALUES "+strings.Join(values, ", "))
	acked := -1
	switch {
	case code == http.StatusOK:
		acked = 1
		h.keys = append(h.keys, keys...)
		h.res.Acked++
		if rows > 1 {
			h.res.SplitsAcked++
		}
	case lenient && transientStatus(code):
		h.res.Unavailable++
	default:
		h.violatef("%s: insert keys %v: HTTP %d: %s", h.phase, keys, code, body)
		return false
	}
	for _, k := range keys {
		h.state[k] = &keyShadow{acked: acked, attempted: 1}
	}
	return acked == 1
}

// parseShadowValue decodes `v<key>_<counter>` and checks it belongs to
// the key it was read from — a cross-key value means partition routing
// delivered someone else's tuple.
func parseShadowValue(v string, key int) (int, error) {
	rest, ok := strings.CutPrefix(v, fmt.Sprintf("v%d_", key))
	if !ok {
		return 0, fmt.Errorf("value %q does not belong to key %d", v, key)
	}
	c, err := strconv.Atoi(rest)
	if err != nil {
		return 0, fmt.Errorf("value %q: bad counter: %v", v, err)
	}
	return c, nil
}

// recover brings the cluster back to fully healthy after a fault
// window: an exchange round probes down peers back into resync, then
// every degraded peer is caught up over /admin/resync (the automated
// CatchUpPeer path), and /healthz must agree everything is ok.
func (h *clusterHarness) recover(phase string) {
	// Probe phase of the exchange revives reachable down peers into the
	// writes-only resync latch; the errors a round may return while
	// peers are still latched are expected, so only the post-resync
	// round is asserted.
	h.r.ExchangeNow()
	// Catch-up can legitimately refuse a peer whose partition has no
	// readable source until a fresher sibling is resynced first (a 409
	// naming the blocker), so retry passes resolve the ordering; only a
	// peer still degraded after every pass is a violation.
	var lastRefusal string
	for attempt := 0; attempt <= h.cfg.Shards; attempt++ {
		degraded := h.degradedPeers()
		if len(degraded) == 0 {
			break
		}
		for _, name := range degraded {
			if code, body := h.serve(http.MethodPost, "/admin/resync", "", map[string]string{"name": name}); code != http.StatusOK {
				lastRefusal = fmt.Sprintf("resync %s: HTTP %d: %s", name, code, body)
			}
		}
	}
	if err := h.r.ExchangeNow(); err != nil {
		h.violatef("%s: exchange after recovery: %v", phase, err)
	}
	if degraded := h.degradedPeers(); len(degraded) > 0 {
		h.violatef("%s: peers still degraded after resync: %v (last refusal: %s)", phase, degraded, lastRefusal)
	}
}

// degradedPeers lists peers /healthz reports as anything but "ok".
func (h *clusterHarness) degradedPeers() []string {
	_, body := h.serve(http.MethodGet, "/healthz", "", nil)
	var hr cluster.HealthResponse
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		h.violatef("healthz: %v", err)
		return nil
	}
	var out []string
	for _, p := range hr.Peers {
		if p.Status != "ok" {
			out = append(out, p.Name)
		}
	}
	return out
}

// verifyAll replays a point read of EVERY shadow key against a healthy
// cluster: the strictest form of "no acked write lost".
func (h *clusterHarness) verifyAll(phase string) {
	keys := make([]int, 0, len(h.state))
	for k := range h.state {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		h.pointRead("verifier", k, false, "verify-"+phase)
	}
}

// rebalance proposes the next-version map with every third partition's
// replica group rotated one node to the right, waits for the migration
// synchronously, and checks the outcome. mustComplete asserts the
// success path (healthy cluster); otherwise a clean rollback is an
// equally correct answer to a mid-migration kill.
func (h *clusterHarness) rebalance(mustComplete bool) {
	h.res.Rebalances++
	pm := h.r.CurrentPartitionMap()
	replicas := make([][]string, len(pm.Owners))
	for p := range pm.Owners {
		g := pm.GroupOf(p)
		names := make([]string, len(g))
		for i, n := range g {
			if p%3 == 0 {
				n = (n + 1) % h.cfg.Shards
			}
			names[i] = h.names[n]
		}
		replicas[p] = names
	}
	target := pm.Version + 1
	code, body := h.serve(http.MethodPost, "/admin/rebalance", "", cluster.PartitionMapUpdate{
		Version: target, Replicas: replicas, Wait: true,
	})
	switch code {
	case http.StatusOK:
	case http.StatusBadGateway:
		if mustComplete {
			h.violatef("rebalance to v%d rolled back on a healthy cluster: %s", target, body)
		}
	default:
		h.violatef("rebalance to v%d: HTTP %d: %s", target, code, body)
		return
	}

	// The migration must have settled into a terminal state — "done"
	// with the map installed, or "rolled_back" with the old map intact.
	// A stuck "running" after a synchronous call is a harness-visible
	// deadlock.
	_, body = h.serve(http.MethodGet, "/admin/rebalance", "", nil)
	var prog cluster.MigrationProgress
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		h.violatef("rebalance progress: %v", err)
		return
	}
	switch {
	case prog.Active || prog.State == "running":
		h.violatef("rebalance to v%d still running after synchronous call", target)
	case prog.State == "done":
		if v := h.r.CurrentPartitionMap().Version; v != target {
			h.violatef("rebalance done but map at v%d, want v%d", v, target)
		}
	case prog.State == "rolled_back":
		if mustComplete {
			h.violatef("rebalance to v%d rolled back on a healthy cluster: %s", target, prog.Error)
		}
		if v := h.r.CurrentPartitionMap().Version; v != pm.Version {
			h.violatef("rolled-back rebalance left map at v%d, want v%d", v, pm.Version)
		}
	default:
		h.violatef("rebalance to v%d: unexpected state %q", target, prog.State)
	}
	h.cfg.Logf("rebalance to v%d: %s (%d partitions, %d tuples copied)",
		target, prog.State, prog.PartitionsMoved, prog.TuplesCopied)
}

// checkSketchConvergence runs a catalog-spanning scan through the
// router — each covering shard observes only its slice, all well under
// the 60% escalation grace — then one exchange round, after which
// every shard, including any that was killed and revived earlier, must
// price the scanner above 1×: the union view survived the outage.
func (h *clusterHarness) checkSketchConvergence() {
	for i := 0; i < 2; i++ {
		if code, _, body := h.query("scanner", `SELECT * FROM items`); code != http.StatusOK {
			h.violatef("convergence scan: HTTP %d: %s", code, body)
			return
		}
	}
	if err := h.r.ExchangeNow(); err != nil {
		h.violatef("convergence exchange: %v", err)
		return
	}
	for i, sh := range h.shields {
		if m := sh.Detector().Multiplier("scanner"); m <= 1 {
			h.violatef("shard %d prices the full-catalog scanner at %gx after exchange — sketches did not reconverge", i, m)
		}
	}
}
