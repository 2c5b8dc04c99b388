package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/vclock"
)

// newShard builds one delaydb shard: a real engine + shield + HTTP
// front door holding an empty `items` table, delays running on a
// non-blocking simulated clock so tests never sleep. catalogN is the
// global catalog size coverage is priced against — a shard holds only
// its partitions' rows, which arrive through the router.
func newShard(t testing.TB, catalogN int, det *detect.Config) (http.Handler, *core.Shield) {
	t.Helper()
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	shield, err := core.New(db, core.Config{
		N: catalogN, Alpha: 1, Beta: 1, Cap: time.Millisecond,
		Clock:                vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
		Detect:               det,
		RegistrationInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(shield)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), shield
}

// clusterOpts describes a test cluster. The zero value is three shards
// behind the zero-value Config — full replication — holding no rows.
type clusterOpts struct {
	Shards int // default 3
	// Tuples loads rows (i, 'v<i>') for i in 1..Tuples through the
	// router, so each lands on exactly the shards the map names.
	Tuples int
	Detect *detect.Config
	Config Config
	// Wrap, when set, wraps shard i's transport (outside its kill
	// switch) — how a test injects a shard that fails some requests.
	Wrap func(shard int, next transport) transport
}

// testCluster is everything newTestCluster built: the router, and per
// shard its raw handler (for probing shard state off the router's
// paths), shield and kill switch. Every shard listens on loopback and
// is reached over the shard transport.
type testCluster struct {
	Router  *Router
	Handler http.Handler // the router's front door
	Shards  []http.Handler
	Shields []*core.Shield
	Chaos   []*Chaos
}

func newTestCluster(t testing.TB, o clusterOpts) *testCluster {
	t.Helper()
	if o.Shards == 0 {
		o.Shards = 3
	}
	catalog := o.Tuples
	if catalog == 0 {
		catalog = 100 // empty to start; tuples arrive through the router
	}
	c := &testCluster{
		Shards:  make([]http.Handler, o.Shards),
		Shields: make([]*core.Shield, o.Shards),
		Chaos:   make([]*Chaos, o.Shards),
	}
	nodes := make([]*Node, o.Shards)
	for i := range nodes {
		c.Shards[i], c.Shields[i] = newShard(t, catalog, o.Detect)
		nodes[i], c.Chaos[i] = NewChaosNode(fmt.Sprintf("shard-%d", i), c.Shards[i])
		t.Cleanup(func() { nodes[i].Close() }) // before newShard's db.Close
		if o.Wrap != nil {
			nodes[i].rt = o.Wrap(i, nodes[i].rt)
		}
	}
	r, err := NewRouter(nodes, o.Config)
	if err != nil {
		t.Fatal(err)
	}
	c.Router, c.Handler = r, r.Handler()
	if o.Tuples > 0 {
		if err := r.ExecScript(insertItems(1, o.Tuples)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// localNode is NewLocalNode, closed when t ends: before the databases
// of shards built earlier in t, which t closes later.
func localNode(t testing.TB, name string, h http.Handler) *Node {
	t.Helper()
	n := NewLocalNode(name, h)
	t.Cleanup(func() { n.Close() })
	return n
}

// insertItems renders one INSERT of rows (i, 'v<i>') for i in lo..hi.
func insertItems(lo, hi int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := lo; i <= hi; i++ {
		if i > lo {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'v%d')", i, i)
	}
	return sb.String()
}

// primaryOf returns the shard a point read of key goes to first.
func (c *testCluster) primaryOf(key int64) int {
	return c.Router.CurrentPartitionMap().OwnerOf(key)
}

// groupNames renders pm's replica groups by node name, the form a
// rebalance body takes.
func groupNames(r *Router, pm *PartitionMap) [][]string {
	out := make([][]string, len(pm.Replicas))
	for p, g := range pm.Replicas {
		for _, n := range g {
			out[p] = append(out[p], r.nodes[n].name)
		}
	}
	return out
}

// handlerClient is the tests' and benchmarks' client: an
// http.RoundTripper that calls a handler in-process and records what it
// wrote into an http.Response.
type handlerClient struct {
	h http.Handler
}

func (t handlerClient) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// recordedResponse is a minimal ResponseWriter capturing status,
// headers, and body, for handlerClient and handlerTransport.
type recordedResponse struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (r *recordedResponse) Header() http.Header { return r.header }

func (r *recordedResponse) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *recordedResponse) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}

// do sends one request through a handler the way a client would.
func do(t testing.TB, h http.Handler, method, path, identity, body string) (*http.Response, []byte) {
	t.Helper()
	client := &http.Client{Transport: handlerClient{h: h}}
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://router"+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if identity != "" {
		req.Header.Set("X-Identity", identity)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func query(t testing.TB, h http.Handler, identity, sql string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(server.QueryRequest{SQL: sql})
	return do(t, h, http.MethodPost, "/query", identity, string(body))
}

func decodeQuery(t testing.TB, body []byte) server.QueryResponse {
	t.Helper()
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return qr
}

// readValue point-reads items.v for key through h (the router, or one
// shard's own handler), reporting whether the row exists.
func readValue(t testing.TB, h http.Handler, identity string, key int) (string, bool) {
	t.Helper()
	resp, body := query(t, h, identity, fmt.Sprintf(`SELECT v FROM items WHERE id = %d`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read key %d: HTTP %d: %s", key, resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if len(qr.Rows) == 0 {
		return "", false
	}
	return qr.Rows[0][0], true
}

// shardCount asks one shard directly how many tuples it holds.
func shardCount(t testing.TB, shard http.Handler) int {
	t.Helper()
	resp, body := query(t, shard, "probe", `SELECT COUNT(*) FROM items`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard count: HTTP %d: %s", resp.StatusCode, body)
	}
	var c int
	fmt.Sscanf(decodeQuery(t, body).Rows[0][0], "%d", &c)
	return c
}

func healthOf(t testing.TB, h http.Handler) HealthResponse {
	t.Helper()
	resp, body := do(t, h, http.MethodGet, "/healthz", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d: %s", resp.StatusCode, body)
	}
	var hr HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatalf("healthz: %v: %s", err, body)
	}
	return hr
}

func peerStatus(hr HealthResponse, name string) string {
	for _, p := range hr.Peers {
		if p.Name == name {
			return p.Status
		}
	}
	return "absent"
}

func TestRingDistributionAndSequence(t *testing.T) {
	r := newRing(4)
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[r.sequence(fmt.Sprintf("key-%d", i))[0]]++
	}
	for n, c := range counts {
		// Perfectly even would be 2500; vnodes should keep every node
		// within a factor of ~2 of its fair share.
		if c < 1250 || c > 5000 {
			t.Errorf("node %d owns %d of 10000 keys; want a roughly even split %v", n, c, counts)
		}
	}
	seq := r.sequence("some-key")
	if len(seq) != 4 {
		t.Fatalf("sequence length %d, want 4", len(seq))
	}
	seen := make(map[int]bool)
	for _, n := range seq {
		if seen[n] {
			t.Fatalf("sequence repeats node %d: %v", n, seq)
		}
		seen[n] = true
	}
	// Determinism: same key, same order.
	for i := 0; i < 3; i++ {
		again := r.sequence("some-key")
		for j := range seq {
			if again[j] != seq[j] {
				t.Fatalf("sequence not deterministic: %v vs %v", seq, again)
			}
		}
	}
}

// TestZeroConfigIsFullReplication pins the degenerate map: the
// zero-value Config is DefaultPartitions partitions whose replica group
// is every node, whatever Replication says.
func TestZeroConfigIsFullReplication(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 3, Config: Config{Replication: 1}})
	pm := c.Router.CurrentPartitionMap()
	if len(pm.Owners) != DefaultPartitions {
		t.Fatalf("%d partitions, want DefaultPartitions (%d)", len(pm.Owners), DefaultPartitions)
	}
	primaries := make(map[int]bool)
	for p := range pm.Owners {
		g := pm.GroupOf(p)
		if len(g) != 3 {
			t.Fatalf("partition %d group %v, want all 3 nodes", p, g)
		}
		primaries[g[0]] = true
	}
	if len(primaries) != 3 {
		t.Errorf("primaries %v: reads of different tuples should spread over all 3 shards", primaries)
	}
	hr := healthOf(t, c.Handler)
	if hr.PartitionVersion != 1 || hr.Partitions != DefaultPartitions || hr.Replication != 3 {
		t.Errorf("healthz shape = v%d/%d/R%d, want v1/%d/R3", hr.PartitionVersion, hr.Partitions, hr.Replication, DefaultPartitions)
	}
}

func TestWriteFanoutReplicatesToAllShards(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Tuples: 10})
	resp, body := query(t, c.Handler, "writer", `INSERT INTO items VALUES (999, 'replicated')`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write: HTTP %d: %s", resp.StatusCode, body)
	}
	for i, sh := range c.Shards {
		if v, ok := readValue(t, sh, "probe", 999); !ok || v != "replicated" {
			t.Errorf("shard %d: replicated row = (%q, %v)", i, v, ok)
		}
		if n := shardCount(t, sh); n != 11 {
			t.Errorf("shard %d holds %d rows, want all 11", i, n)
		}
	}
}

// TestRegisterForwardsToOneShard: a registration goes to the first
// readable shard alone, so exactly one shard's throttle grants it.
func TestRegisterForwardsToOneShard(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 10})
	granted := func() []float64 {
		var out []float64
		for _, sh := range c.Shields {
			out = append(out, sh.Metrics().Export()["shield_registrations_granted"].(float64))
		}
		return out
	}
	resp, body := do(t, c.Handler, http.MethodPost, "/register", "", `{"identity":"acct-1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := granted(); !slices.Equal(got, []float64{1, 0}) {
		t.Errorf("registrations granted per shard %v, want [1 0]: shard 0 alone", got)
	}
	// With shard 0 out of the read plane, shard 1 is the first readable.
	c.Chaos[0].Kill()
	c.Router.Nodes()[0].latchDown()
	if resp, body := do(t, c.Handler, http.MethodPost, "/register", "", `{"identity":"acct-2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("register with shard 0 down: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := granted(); !slices.Equal(got, []float64{1, 1}) {
		t.Errorf("registrations granted per shard %v, want [1 1]", got)
	}
}

// TestRegisterLatchesNoShard: a registration is a throttle check, not a
// write. With shard 0's slot spent by a direct /register and shard 1's
// free, a client's /register through the router gets one shard's answer,
// and no shard leaves the read plane for having answered differently.
func TestRegisterLatchesNoShard(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 10})
	if resp, body := do(t, c.Shards[0], http.MethodPost, "/register", "", `{"identity":"direct"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("direct register on shard 0: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body := do(t, c.Handler, http.MethodPost, "/register", "", `{"identity":"acct-1"}`)
	// Shard 0 is the first readable shard: its throttle answers.
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("register through the router: HTTP %d Retry-After %q (%s), want shard 0's 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	for _, n := range c.Router.Nodes() {
		if !n.readable() {
			t.Errorf("%s left the read plane after a /register", n.name)
		}
	}
	if hr := healthOf(t, c.Handler); hr.Status != "ok" {
		t.Errorf("healthz %q after a /register, want ok: %+v", hr.Status, hr.Peers)
	}
}

// TestShardChargesTheClient: a client that sends no X-Identity is its
// address, and the shard must charge that address — not the router's
// socket, which would make every anonymous client one principal.
func TestShardChargesTheClient(t *testing.T) {
	const client = "203.0.113.7:5555"
	// The shard sees the router's loopback socket as its peer. The one
	// subtest keeps the ID this test ran under when a cluster could also
	// call its shards in-process.
	t.Run("loopback=true", func(t *testing.T) {
		c := newTestCluster(t, clusterOpts{Tuples: 10, Detect: detectCfg()})
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"sql":"SELECT v FROM items WHERE id = 1"}`))
		req.Header.Set("Content-Type", "application/json")
		req.RemoteAddr = client
		rec := httptest.NewRecorder()
		c.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("anonymous read: HTTP %d: %s", rec.Code, rec.Body)
		}
		var seen []string
		for _, sh := range c.Shields {
			for _, s := range sh.Detector().Suspects(0) {
				seen = append(seen, s.Principal)
			}
		}
		if !slices.Contains(seen, client) {
			t.Fatalf("shards charged %q, want the client %q", seen, client)
		}
	})
}

func TestAdmissionRejectsBeforeAnyShard(t *testing.T) {
	clock := vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 10, Config: Config{
		AdmitRate: 0.001, AdmitBurst: 1, Clock: clock,
	}})
	r, h := c.Router, c.Handler
	// First query spends the only token; the second must be rejected at
	// the edge with no shard work.
	resp, _ := query(t, h, "greedy", `SELECT * FROM items WHERE id = 1`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: HTTP %d", resp.StatusCode)
	}
	resp, body := query(t, h, "greedy", `SELECT * FROM items WHERE id = 1`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	var total int64
	for _, sh := range c.Shields {
		total += sh.QueriesServed()
	}
	if total != 1 {
		t.Errorf("shards served %d queries, want 1 — the rejected query touched a shard", total)
	}
	if v := r.admitRej.Value(); v != 1 {
		t.Errorf("cluster_admission_rejected_total = %d, want 1", v)
	}

	// Global in-flight cap: with the gauge pinned at the cap, the next
	// query bounces with 429 before identity limiting.
	r.inflight.Set(int64(r.cfg.MaxInFlight))
	resp, _ = query(t, h, "someone-else", `SELECT * FROM items WHERE id = 1`)
	r.inflight.Set(0)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("at-capacity query: HTTP %d Retry-After %q, want 429 and 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if v := r.inflightRej.Value(); v != 1 {
		t.Errorf("cluster_inflight_rejected_total = %d, want 1", v)
	}
}

func TestRouterEdgeHardening(t *testing.T) {
	h := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 10}).Handler

	// Wrong content type → 415.
	client := &http.Client{Transport: handlerClient{h: h}}
	req, _ := http.NewRequest(http.MethodPost, "http://router/query", strings.NewReader(`{"sql":"SELECT * FROM items"}`))
	req.Header.Set("Content-Type", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("content-type status = %d, want 415", resp.StatusCode)
	}
	// Malformed JSON → 400.
	if resp, body := do(t, h, http.MethodPost, "/query", "", `{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d (%s), want 400", resp.StatusCode, body)
	}
	// Empty sql → 400.
	if resp, _ := do(t, h, http.MethodPost, "/query", "", `{"sql":""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sql status = %d, want 400", resp.StatusCode)
	}
	// Method mismatch → 405.
	if resp, _ := do(t, h, http.MethodGet, "/query", "", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}
	// Unknown resync peer → 404; malformed → 400.
	if resp, body := do(t, h, http.MethodPost, "/admin/resync", "", `{"name":"nope"}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown resync peer status = %d (%s), want 404", resp.StatusCode, body)
	}
	if resp, _ := do(t, h, http.MethodPost, "/admin/resync", "", `{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed resync status = %d, want 400", resp.StatusCode)
	}
	// A map moves only by rebalance and a peer returns only by resync:
	// the raw install and the unchecked peer-up are not routes.
	for _, path := range []string{"/admin/partition-map", "/admin/peer-up"} {
		resp, _ := do(t, h, http.MethodPost, path, "", `{"name":"shard-0","version":2,"replicas":[["shard-0"]]}`)
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status = %d, want 404 or 405", path, resp.StatusCode)
		}
	}
	// The quote endpoint is hardened like the shard's.
	if resp, _ := do(t, h, http.MethodPost, "/admin/quote", "", `garbage`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed quote status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := do(t, h, http.MethodPost, "/admin/quote", "", `{"ids":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty quote status = %d, want 400", resp.StatusCode)
	}
	// Unknown node pin on a GET proxy → 404.
	if resp, _ := do(t, h, http.MethodGet, "/stats?node=ghost", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown node pin status = %d, want 404", resp.StatusCode)
	}
	// A body past server.MaxBodyBytes → 413 with an error object, on the
	// raw-body paths (/query, /register) and a decoded one alike; it used
	// to be read whole.
	huge := `{"sql":"` + strings.Repeat("a", server.MaxBodyBytes) + `"}`
	for _, path := range []string{"/query", "/register", "/admin/quote"} {
		resp, body := do(t, h, http.MethodPost, path, "mallory", huge)
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || er.Error == "" {
			t.Errorf("%s with %d bytes: HTTP %d, body %.80q; want 413 and an error object", path, len(huge), resp.StatusCode, body)
		}
	}
}

func TestProxyGetAndQuote(t *testing.T) {
	h := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 10}).Handler
	resp, body := do(t, h, http.MethodGet, "/stats?node=shard-1", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d: %s", resp.StatusCode, body)
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if len(stats.Tables) != 1 || stats.Tables[0] != "items" {
		t.Errorf("proxied stats tables = %v, want [items]", stats.Tables)
	}
	resp, body = do(t, h, http.MethodPost, "/admin/quote", "q", `{"ids":[1,2,3]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote: HTTP %d: %s", resp.StatusCode, body)
	}
	var quote server.QuoteResponse
	if err := json.Unmarshal(body, &quote); err != nil {
		t.Fatal(err)
	}
	if quote.Tuples != 3 {
		t.Errorf("quote tuples = %d, want 3", quote.Tuples)
	}
}

// TestQuoteRoutesByTuple: an extraction quote is priced by the shards
// that own the tuples, whoever asks. On 4 shards × 64 partitions × R=1
// no single shard holds every id, so a quote routed by the caller's
// identity answers 404 for most ids and for any list spanning owners.
func TestQuoteRoutesByTuple(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 40, Config: Config{Partitions: 64}})
	h := c.Handler
	quote := func(body string) (int, server.QuoteResponse) {
		resp, raw := do(t, h, http.MethodPost, "/admin/quote", "auditor", body)
		var q server.QuoteResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &q); err != nil {
				t.Fatalf("quote %s: %v: %s", body, err, raw)
			}
		}
		return resp.StatusCode, q
	}
	// Warm a few tuples so prices differ and a sum means something.
	for _, id := range []int{2, 3, 5} {
		readValue(t, h, "reader", id)
	}
	single := make(map[int]float64)
	for id := 1; id <= 40; id++ {
		code, q := quote(fmt.Sprintf(`{"ids":[%d]}`, id))
		if code != http.StatusOK || q.Tuples != 1 {
			t.Fatalf("quote of id %d: HTTP %d, tuples %d; want 200 and 1", id, code, q.Tuples)
		}
		single[id] = q.DelayMillis
	}
	code, q := quote(`{"ids":[1,2,3,4,5,6,7,8]}`)
	if code != http.StatusOK || q.Tuples != 8 {
		t.Fatalf("quote of ids 1..8: HTTP %d, tuples %d; want 200 and 8", code, q.Tuples)
	}
	var want float64
	for id := 1; id <= 8; id++ {
		want += single[id]
	}
	if diff := q.DelayMillis - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("quote of ids 1..8 = %v ms, want the sum of the single quotes %v ms", q.DelayMillis, want)
	}
	if code, _ := quote(`{"ids":[1,4000]}`); code != http.StatusNotFound {
		t.Errorf("quote with an unknown id: HTTP %d, want the shard's 404", code)
	}
	// A partition with no readable replica cannot be priced.
	c.Chaos[c.primaryOf(1)].Kill()
	readable := -1
	for id := 2; id <= 40; id++ {
		if c.primaryOf(int64(id)) != c.primaryOf(1) {
			readable = id
			break
		}
	}
	if code, _ := quote(`{"ids":[1]}`); code != http.StatusServiceUnavailable {
		t.Errorf("quote against a dead owner: HTTP %d, want 503", code)
	}
	if code, _ := quote(fmt.Sprintf(`{"ids":[%d]}`, readable)); code != http.StatusOK {
		t.Errorf("quote of id %d on a live owner: HTTP %d, want 200", readable, code)
	}
}

func TestRouterMetricsExported(t *testing.T) {
	h := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 10}).Handler
	query(t, h, "m", `SELECT * FROM items WHERE id = 1`)
	query(t, h, "m", `SELECT v FROM items ORDER BY id LIMIT 3`)
	resp, body := do(t, h, http.MethodGet, "/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"cluster_routed_total", "cluster_partitions",
		"cluster_partition_single_reads_total", "cluster_partition_single_writes_total",
		"cluster_partition_scatter_total", "cluster_scatter_rows_fetched_total", "cluster_scatter_rows_relayed_total",
		"cluster_admission_rejected_total", "cluster_inflight_rejected_total",
		"cluster_peer_down", "cluster_peer_resync", "cluster_peer_errors_total",
		"cluster_write_diverged_total",
		"cluster_antientropy_rounds_total", "cluster_antientropy_sketch_bytes_total",
		"cluster_antientropy_merge_lag_seconds", "cluster_nodes",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("%s missing from /metrics", name)
		}
	}
	if v := m["cluster_routed_total"].(float64); v != 2 {
		t.Errorf("cluster_routed_total = %v, want 2", v)
	}
	if v := m["cluster_partition_single_reads_total"].(float64); v != 1 {
		t.Errorf("cluster_partition_single_reads_total = %v, want 1 (the point read took the one path)", v)
	}
	// The TopN: every leg brings back up to LIMIT rows, LIMIT are relayed.
	fetched, relayed := m["cluster_scatter_rows_fetched_total"].(float64), m["cluster_scatter_rows_relayed_total"].(float64)
	if m["cluster_partition_scatter_total"].(float64) != 1 || relayed != 3 || fetched < relayed || fetched > 2*relayed {
		t.Errorf("one LIMIT 3 scatter over 2 shards: %v rows fetched, %v relayed", fetched, relayed)
	}
	if v := m["cluster_nodes"].(float64); v != 2 {
		t.Errorf("cluster_nodes = %v, want 2", v)
	}
}
