package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/vclock"
)

func TestPartitionMapPlacement(t *testing.T) {
	pm, err := NewPartitionMap(1, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Version != 1 || len(pm.Owners) != 64 {
		t.Fatalf("map = v%d/%d partitions, want v1/64", pm.Version, len(pm.Owners))
	}
	counts := make(map[int]int)
	for i := int64(0); i < 10000; i++ {
		o := pm.OwnerOf(i)
		if o != pm.OwnerOf(i) {
			t.Fatal("OwnerOf not deterministic")
		}
		counts[o]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 nodes own tuples: %v", len(counts), counts)
	}
	for n, c := range counts {
		// Fair share 2500; the ring plus splitmix should keep every
		// node within a factor of ~2.
		if c < 1000 || c > 5500 {
			t.Errorf("node %d owns %d of 10000 keys: %v", n, c, counts)
		}
	}
	if _, err := NewPartitionMap(1, 0, 4, 1); err == nil {
		t.Error("accepted 0 partitions")
	}
	if _, err := NewPartitionMap(1, 8, 0, 1); err == nil {
		t.Error("accepted 0 nodes")
	}
}

// TestPartitionedDataPlacementAndPointReads is the capacity claim in
// miniature: tuples loaded through the router land exactly once, on
// their owner, and point queries come back whole.
func TestPartitionedDataPlacementAndPointReads(t *testing.T) {
	const tuples = 60
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: tuples, Config: Config{Partitions: 64}})
	r, h := c.Router, c.Handler

	total := 0
	for i, sh := range c.Shards {
		n := shardCount(t, sh)
		if n == tuples {
			t.Errorf("shard %d holds the full dataset (%d tuples); partitioning did not split", i, n)
		}
		total += n
	}
	if total != tuples {
		t.Fatalf("shards hold %d tuples total, want exactly %d (each tuple once)", total, tuples)
	}

	pm := r.CurrentPartitionMap()
	for id := 1; id <= tuples; id++ {
		resp, body := query(t, h, "reader", fmt.Sprintf(`SELECT v FROM items WHERE id = %d`, id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("id %d: HTTP %d: %s", id, resp.StatusCode, body)
		}
		qr := decodeQuery(t, body)
		if len(qr.Rows) != 1 || qr.Rows[0][0] != fmt.Sprintf("v%d", id) {
			t.Fatalf("id %d: rows %v", id, qr.Rows)
		}
		if got := resp.Header.Get("X-Partition-Version"); got != "1" {
			t.Fatalf("id %d: X-Partition-Version %q, want 1", id, got)
		}
		// The tuple must live on (and only on) the owner the map names.
		owner := pm.OwnerOf(int64(id))
		for i, sh := range c.Shards {
			if _, found := readValue(t, sh, "probe", id); found != (i == owner) {
				t.Fatalf("id %d: on node %d (found=%v), owner is %d", id, i, found, owner)
			}
		}
	}
}

func TestPartitionedSingleKeyWrites(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 40, Config: Config{Partitions: 64}})
	h := c.Handler
	pm := c.Router.CurrentPartitionMap()

	// UPDATE pinned by key: affects exactly one row, on the owner.
	resp, body := query(t, h, "writer", `UPDATE items SET v = 'patched' WHERE id = 7`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: HTTP %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Affected != 1 {
		t.Fatalf("update affected %d, want 1", qr.Affected)
	}
	if v, ok := readValue(t, c.Shards[pm.OwnerOf(7)], "probe", 7); !ok || v != "patched" {
		t.Fatalf("owner row after update: (%q, %v)", v, ok)
	}

	// INSERT of one row lands on its owner alone.
	resp, body = query(t, h, "writer", `INSERT INTO items VALUES (1000, 'new')`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: HTTP %d: %s", resp.StatusCode, body)
	}
	owner := pm.OwnerOf(1000)
	for i, sh := range c.Shards {
		if _, found := readValue(t, sh, "probe", 1000); found != (i == owner) {
			t.Fatalf("inserted tuple on node %d (found=%v), owner is %d", i, found, owner)
		}
	}

	// DELETE pinned by key.
	resp, body = query(t, h, "writer", `DELETE FROM items WHERE id = 1000`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Affected != 1 {
		t.Fatalf("delete affected %d, want 1", qr.Affected)
	}

	// Predicate write without a key pin scatters and sums effects.
	resp, body = query(t, h, "writer", `UPDATE items SET v = 'all' WHERE id <= 10`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter update: HTTP %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Affected != 10 {
		t.Fatalf("scatter update affected %d, want 10", qr.Affected)
	}
}

func TestScatterAggregates(t *testing.T) {
	h := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 30, Config: Config{Partitions: 64}}).Handler

	resp, body := query(t, h, "analyst",
		`SELECT COUNT(*), SUM(id), AVG(id), MIN(id), MAX(id) FROM items`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	wantCols := []string{"count(*)", "sum(id)", "avg(id)", "min(id)", "max(id)"}
	for i, c := range wantCols {
		if qr.Columns[i] != c {
			t.Fatalf("columns %v, want %v", qr.Columns, wantCols)
		}
	}
	if len(qr.Rows) != 1 {
		t.Fatalf("rows %v, want one", qr.Rows)
	}
	want := []string{"30", "465", "15.5", "1", "30"}
	for i, w := range want {
		if qr.Rows[i%1][i] != w {
			t.Fatalf("aggregate row %v, want %v", qr.Rows[0], want)
		}
	}

	// A predicate matching one tuple: shards whose slice matches
	// nothing report the empty-aggregate zero, which must not pollute
	// the global MIN (the count partial filters it).
	resp, body = query(t, h, "analyst",
		`SELECT MIN(id), MAX(id), COUNT(*) FROM items WHERE id >= 17 AND id <= 17`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	qr = decodeQuery(t, body)
	if qr.Rows[0][0] != "17" || qr.Rows[0][1] != "17" || qr.Rows[0][2] != "1" {
		t.Fatalf("sparse aggregate row %v, want [17 17 1]", qr.Rows[0])
	}
}

func TestScatterOrderByMergesAndStrips(t *testing.T) {
	h := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 40, Config: Config{Partitions: 64}}).Handler

	// The sort column is not projected: the router injects it for the
	// merge and strips it before relay.
	resp, body := query(t, h, "analyst", `SELECT v FROM items ORDER BY id DESC LIMIT 10`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if len(qr.Columns) != 1 || qr.Columns[0] != "v" {
		t.Fatalf("columns %v, want [v] (injected sort column must be stripped)", qr.Columns)
	}
	if len(qr.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(qr.Rows))
	}
	for i, row := range qr.Rows {
		if want := fmt.Sprintf("v%d", 40-i); row[0] != want {
			t.Fatalf("row %d = %v, want %s", i, row, want)
		}
	}

	// Ascending over everything, sort column projected.
	resp, body = query(t, h, "analyst", `SELECT id, v FROM items ORDER BY id`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	qr = decodeQuery(t, body)
	if len(qr.Rows) != 40 {
		t.Fatalf("%d rows, want 40", len(qr.Rows))
	}
	for i, row := range qr.Rows {
		if want := fmt.Sprintf("%d", i+1); row[0] != want {
			t.Fatalf("row %d = %v, want id %s", i, row, want)
		}
	}
}

func TestScatterLimitWithoutOrder(t *testing.T) {
	h := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 40, Config: Config{Partitions: 64}}).Handler
	resp, body := query(t, h, "analyst", `SELECT v FROM items LIMIT 5`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); len(qr.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(qr.Rows))
	}
}

// TestPartitionMapVersionBump drives the version fence through the one
// way a map changes, POST /admin/rebalance: a bad proposal is refused
// before anything moves, a pin on the superseded map is refused
// retryably, and an unpinned read follows the tuple to its new owner.
func TestPartitionMapVersionBump(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 40, Config: Config{Partitions: 16}})
	r, h := c.Router, c.Handler

	// The admin surface reports the live map.
	resp, body := do(t, h, http.MethodGet, "/admin/partition-map", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET map: HTTP %d: %s", resp.StatusCode, body)
	}
	var pmr PartitionMapResponse
	if err := json.Unmarshal(body, &pmr); err != nil {
		t.Fatal(err)
	}
	if pmr.Version != 1 || pmr.Replication != 1 || pmr.Partitions != 16 || len(pmr.Replicas) != 16 {
		t.Fatalf("map response %+v", pmr)
	}

	// Pick a key and verify a version-1 pin works.
	req := func(pin string, id int) (*http.Response, []byte) {
		b, _ := json.Marshal(server.QueryRequest{SQL: fmt.Sprintf(`SELECT v FROM items WHERE id = %d`, id)})
		client := &http.Client{Transport: handlerClient{h: h}}
		rq, _ := http.NewRequest(http.MethodPost, "http://router/query", bytes.NewReader(b))
		rq.Header.Set("Content-Type", "application/json")
		rq.Header.Set("X-Identity", "pinned")
		if pin != "" {
			rq.Header.Set("X-Partition-Version", pin)
		}
		resp, err := client.Do(rq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	if resp, body := req("1", 7); resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned v1 before bump: HTTP %d: %s", resp.StatusCode, body)
	}

	// Rotate every partition to the next node.
	oldOwner := r.CurrentPartitionMap().OwnerOf(7)
	newOwner := (oldOwner + 1) % len(r.Nodes())
	rot := make([][]string, len(pmr.Replicas))
	for p, g := range pmr.Replicas {
		i := r.nodeIndex(g[0])
		rot[p] = []string{r.Nodes()[(i+1)%len(r.Nodes())].Name()}
	}
	rebalance := func(up PartitionMapUpdate) (*http.Response, []byte) {
		up.Wait = true
		b, _ := json.Marshal(up)
		return do(t, h, http.MethodPost, "/admin/rebalance", "", string(b))
	}

	// Wrong next version is refused.
	if resp, body := rebalance(PartitionMapUpdate{Version: 3, Replicas: rot}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("skip-version rebalance: HTTP %d: %s", resp.StatusCode, body)
	}
	// Unknown node is refused.
	bad := append([][]string(nil), rot...)
	bad[0] = []string{"shard-99"}
	if resp, body := rebalance(PartitionMapUpdate{Version: 2, Replicas: bad}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-node rebalance: HTTP %d: %s", resp.StatusCode, body)
	}
	if v := r.CurrentPartitionMap().Version; v != 1 {
		t.Fatalf("refused proposals moved the map to v%d", v)
	}
	// The legal bump moves the tuples and installs the map.
	if resp, body := rebalance(PartitionMapUpdate{Version: 2, Replicas: rot}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: HTTP %d: %s", resp.StatusCode, body)
	}

	// Old-version pins are rejected retryably, with the new version in
	// the headers, before any shard is touched.
	resp2, body2 := req("1", 7)
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("pinned v1 after bump: HTTP %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Partition-Version"); got != "2" {
		t.Fatalf("stale reject advertises version %q, want 2", got)
	}
	if got := resp2.Header.Get("Retry-After"); got != "0" {
		t.Fatalf("stale reject Retry-After %q, want 0", got)
	}

	// An unpinned read consults the NEW map: key 7's new owner serves
	// it, and the old owner is not asked.
	newServed, oldServed := c.Shields[newOwner].QueriesServed(), c.Shields[oldOwner].QueriesServed()
	resp3, body3 := req("", 7)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-bump read: HTTP %d: %s", resp3.StatusCode, body3)
	}
	if qr := decodeQuery(t, body3); len(qr.Rows) != 1 || qr.Rows[0][0] != "v7" {
		t.Fatalf("post-bump read returned %v, want [[v7]]", qr.Rows)
	}
	if got := c.Shields[newOwner].QueriesServed() - newServed; got != 1 {
		t.Errorf("new owner %s served %d reads of key 7, want 1", r.nodes[newOwner].name, got)
	}
	if got := c.Shields[oldOwner].QueriesServed() - oldServed; got != 0 {
		t.Errorf("old owner %s served %d reads of key 7 after the bump, want 0", r.nodes[oldOwner].name, got)
	}
}

// blockingTransport, once armed, parks every request until its context
// is cancelled — the laggard shard the early-cancel paths must abort.
type blockingTransport struct {
	inner     transport
	armed     atomic.Bool
	cancelled chan struct{}
	once      sync.Once
}

func (b *blockingTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if !b.armed.Load() {
		return b.inner.roundTrip(ctx, c)
	}
	<-ctx.Done()
	b.once.Do(func() { close(b.cancelled) })
	return reply{}, ctx.Err()
}

// newLaggardCluster builds a 2-shard R=1 cluster loaded through the
// router, then arms shard 1 to block forever; the partition count is
// chosen so both shards own partitions.
func newLaggardCluster(t *testing.T, tuples int) (*testCluster, *blockingTransport) {
	t.Helper()
	bt := &blockingTransport{cancelled: make(chan struct{})}
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: tuples, Config: Config{Partitions: 32},
		Wrap: func(i int, next transport) transport {
			if i != 1 {
				return next
			}
			bt.inner = next
			return bt
		}})
	if owners := c.Router.CurrentPartitionMap().ownerSet(); len(owners) != 2 {
		t.Fatalf("partition map uses %v of 2 nodes; test needs both", owners)
	}
	bt.armed.Store(true)
	return c, bt
}

func awaitCancel(t *testing.T, bt *blockingTransport, what string) {
	t.Helper()
	select {
	case <-bt.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not cancel the outstanding shard RPC", what)
	}
}

func TestScatterLimitEarlyCancelsLaggards(t *testing.T) {
	c, bt := newLaggardCluster(t, 200)
	resp, body := query(t, c.Handler, "analyst", `SELECT v FROM items LIMIT 5`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); len(qr.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(qr.Rows))
	}
	awaitCancel(t, bt, "LIMIT early-cancel")
	if c.Router.Nodes()[1].Down() {
		t.Fatal("cancelled laggard was latched down; cancellation is not a peer failure")
	}
}

func TestScatterErrorEarlyCancelsLaggards(t *testing.T) {
	c, bt := newLaggardCluster(t, 50)
	// The real shard rejects the unknown table immediately; the
	// blocked shard must be cancelled rather than awaited.
	resp, body := query(t, c.Handler, "analyst", `SELECT * FROM missing`)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("scatter over a missing table succeeded: %s", body)
	}
	awaitCancel(t, bt, "error early-cancel")
	if c.Router.Nodes()[1].Down() {
		t.Fatal("cancelled laggard was latched down")
	}
}

func TestScatterOrderByEarlyCancelOnError(t *testing.T) {
	c, bt := newLaggardCluster(t, 50)
	resp, _ := query(t, c.Handler, "analyst", `SELECT v FROM missing ORDER BY id LIMIT 3`)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("ORDER BY scatter over a missing table succeeded")
	}
	awaitCancel(t, bt, "ORDER BY error early-cancel")
}

func TestSplitInsertGroupsRowsByOwner(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Config: Config{Partitions: 64}})
	pm := c.Router.CurrentPartitionMap()

	want := make(map[int]int)
	for i := 1; i <= 20; i++ {
		want[pm.OwnerOf(int64(i))]++
	}
	if len(want) < 2 {
		t.Fatal("test keys all hash to one owner; pick more keys")
	}
	resp, body := query(t, c.Handler, "loader", insertItems(1, 20))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("split insert: HTTP %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Affected != 20 {
		t.Fatalf("split insert affected %d, want 20", qr.Affected)
	}
	for i, sh := range c.Shards {
		if n := shardCount(t, sh); n != want[i] {
			t.Errorf("node %d holds %d tuples, want %d", i, n, want[i])
		}
	}
}

func TestSuspectsAggregatedAcrossShards(t *testing.T) {
	// Fully replicated 2-shard cluster; each shard's detector sees a
	// different principal's full scan directly.
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 100, Detect: detectCfg()})
	for q := 0; q < 2; q++ {
		if resp, body := query(t, c.Shards[0], "eve", `SELECT * FROM items`); resp.StatusCode != http.StatusOK {
			t.Fatalf("eve scan: HTTP %d: %s", resp.StatusCode, body)
		}
		if resp, body := query(t, c.Shards[1], "mallory", `SELECT * FROM items`); resp.StatusCode != http.StatusOK {
			t.Fatalf("mallory scan: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := do(t, c.Handler, http.MethodGet, "/admin/suspects?k=10", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suspects: HTTP %d: %s", resp.StatusCode, body)
	}
	var sr server.SuspectsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Enabled {
		t.Fatal("aggregated suspects not enabled")
	}
	seen := map[string]detect.Suspect{}
	for _, s := range sr.Suspects {
		seen[s.Principal] = s
	}
	if _, ok := seen["eve"]; !ok {
		t.Fatalf("eve (shard-0 only) missing from aggregate: %s", body)
	}
	if _, ok := seen["mallory"]; !ok {
		t.Fatalf("mallory (shard-1 only) missing from aggregate: %s", body)
	}
	if cov := seen["eve"].Coverage; cov < 0.5 {
		t.Errorf("eve aggregate coverage %v, want the full-scan shard's view", cov)
	}

	// The per-shard pin still works and shows only that shard's view.
	resp, body = do(t, c.Handler, http.MethodGet, "/admin/suspects?node=shard-1&k=10", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned suspects: HTTP %d: %s", resp.StatusCode, body)
	}
	var pinned server.SuspectsResponse
	if err := json.Unmarshal(body, &pinned); err != nil {
		t.Fatal(err)
	}
	for _, s := range pinned.Suspects {
		if s.Principal == "eve" && s.Coverage > 0.1 {
			t.Errorf("shard-1 reports eve coverage %v; eve never queried shard-1", s.Coverage)
		}
	}
}

func TestRetryAfterTracksBucketRefill(t *testing.T) {
	clk := vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
	h := newTestCluster(t, clusterOpts{Shards: 1, Tuples: 10, Config: Config{AdmitRate: 0.25, AdmitBurst: 1, Clock: clk}}).Handler

	if resp, body := query(t, h, "patient", `SELECT v FROM items WHERE id = 1`); resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, _ := query(t, h, "patient", `SELECT v FROM items WHERE id = 1`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query: HTTP %d, want 429", resp.StatusCode)
	}
	// Empty bucket at 0.25 tokens/s: one token in 4 seconds.
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After %q, want 4 (refill time, not a static guess)", got)
	}
	clk.Sleep(2 * time.Second)
	resp, _ = query(t, h, "patient", `SELECT v FROM items WHERE id = 1`)
	if got := resp.Header.Get("Retry-After"); resp.StatusCode != http.StatusTooManyRequests || got != "2" {
		t.Fatalf("after 2s: HTTP %d Retry-After %q, want 429/2", resp.StatusCode, got)
	}
	clk.Sleep(2 * time.Second)
	if resp, body := query(t, h, "patient", `SELECT v FROM items WHERE id = 1`); resp.StatusCode != http.StatusOK {
		t.Fatalf("after refill: HTTP %d: %s", resp.StatusCode, body)
	}
}

// TestRemoteShapedCluster drives the routed surface through nodes that
// are remote to the router — loopback sockets behind the shard
// transport, the path real deployments take.
func TestRemoteShapedCluster(t *testing.T) {
	h := newTestCluster(t, clusterOpts{Shards: 3, Tuples: 30, Config: Config{Partitions: 32}}).Handler
	for id := 1; id <= 30; id++ {
		if v, ok := readValue(t, h, "reader", id); !ok || v != fmt.Sprintf("v%d", id) {
			t.Fatalf("id %d: (%q, %v)", id, v, ok)
		}
	}
	resp, body := query(t, h, "analyst", `SELECT COUNT(*), SUM(id) FROM items`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: HTTP %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if qr.Rows[0][0] != "30" || qr.Rows[0][1] != "465" {
		t.Fatalf("aggregate row %v, want [30 465]", qr.Rows[0])
	}
}

// TestExecScriptSplitsStatements: a script with -- comments and with
// semicolons and dashes inside string literals loads the same rows
// through the router as through one engine: both split it with
// sqlmini.ParseScript.
func TestExecScriptSplitsStatements(t *testing.T) {
	const script = "CREATE TABLE t (id INT PRIMARY KEY, v TEXT);\n" +
		"-- a comment; with a semicolon\n" +
		"INSERT INTO t VALUES (1, 'a;b');\n" +
		"INSERT INTO t VALUES (2, 'it''s -- no comment'), (3, 'x') -- trailing\n;"
	want := [][]string{{"1", "a;b"}, {"2", "it's -- no comment"}, {"3", "x"}}
	const sel = `SELECT id, v FROM t ORDER BY id LIMIT 10`

	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecScript(script); err != nil {
		t.Fatalf("engine: %v", err)
	}
	res, err := db.Exec(sel)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for _, row := range res.Rows {
		got = append(got, []string{fmt.Sprint(row[0].Int), row[1].Str})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("engine rows %q, want %q", got, want)
	}

	c := newTestCluster(t, clusterOpts{Config: Config{Partitions: 8}})
	if err := c.Router.ExecScript(script); err != nil {
		t.Fatalf("router: %v", err)
	}
	resp, body := query(t, c.Handler, "reader", sel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router: HTTP %d: %s", resp.StatusCode, body)
	}
	if rows := decodeQuery(t, body).Rows; fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("router rows %q, want %q", rows, want)
	}
}

// FuzzRebalanceBody holds the rebalance body's path to a map —
// PartitionMapUpdate, mapFromUpdate, validateNextMap — to two things on
// any bytes: it does not panic, and a map it accepts keeps the partition
// count, gives every partition a non-empty, duplicate-free group of known
// nodes, and has each partition's primary first in its group.
func FuzzRebalanceBody(f *testing.F) {
	for _, s := range []string{
		`{"version":2,"replicas":[["shard-0"],["shard-1"],["shard-2"],["shard-0"],["shard-1"],["shard-2"],["shard-0"],["shard-1"]]}`,
		`{"version":2,"replicas":[["shard-0","shard-1"],["shard-1","shard-2"],["shard-2","shard-0"],["shard-0"],["shard-1"],["shard-2"],["shard-0"],["shard-1","shard-0"]],"wait":true}`,
		`{"replication":2}`,
		`{"replication":99}`,
		`{"replication":-1}`,
		`{"replicas":[["shard-0"]]}`,
		`{"replicas":[[],[],[],[],[],[],[],[]]}`,
		`{"replicas":[["shard-0","shard-0"],["shard-1"],["shard-2"],["shard-0"],["shard-1"],["shard-2"],["shard-0"],["shard-1"]]}`,
		`{"replicas":[["shard-9"],["shard-1"],["shard-2"],["shard-0"],["shard-1"],["shard-2"],["shard-0"],["shard-1"]]}`,
		`{"owners":["shard-0"]}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(s))
	}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = localNode(f, fmt.Sprintf("shard-%d", i), http.NotFoundHandler())
	}
	r, err := NewRouter(nodes, Config{Partitions: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var up PartitionMapUpdate
		if json.Unmarshal(in, &up) != nil {
			return
		}
		m, err := r.mapFromUpdate(&up)
		if err != nil || r.validateNextMap(m) != nil {
			return
		}
		if len(m.Replicas) != 8 || len(m.Owners) != 8 {
			t.Fatalf("accepted a map of %d groups and %d owners, want 8 and 8", len(m.Replicas), len(m.Owners))
		}
		for p, g := range m.Replicas {
			if len(g) == 0 || m.Owners[p] != g[0] {
				t.Fatalf("partition %d: group %v, owner %d", p, g, m.Owners[p])
			}
			seen := make(map[int]bool)
			for _, n := range g {
				if n < 0 || n >= len(nodes) || seen[n] {
					t.Fatalf("partition %d: group %v names an unknown or repeated node", p, g)
				}
				seen[n] = true
			}
		}
	})
}
