package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file run on the zero-value Config — full
// replication, the R = N partition map — where every shard holds every
// tuple and a tuple's reads go to its partition's primary. Each picks
// as its victim the primary of the key it reads, so the failure sits on
// the read path instead of beside it.

// TestShardFailover kills one shard mid-workload and checks the
// failover contract: reads keep flowing via the replica-group walk, no
// acked write is lost, the router's /healthz names the degraded peer,
// and /admin/resync re-copies what the peer missed.
func TestShardFailover(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Tuples: 20})
	r, h := c.Router, c.Handler

	// Warm-up workload: writes replicate everywhere, reads succeed.
	resp, body := query(t, h, "w", `INSERT INTO items VALUES (100, 'pre-kill')`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-kill write: HTTP %d: %s", resp.StatusCode, body)
	}
	for i := 0; i < 10; i++ {
		if v, ok := readValue(t, h, fmt.Sprintf("reader-%d", i), 100); !ok || v != "pre-kill" {
			t.Fatalf("pre-kill read %d = (%q, %v)", i, v, ok)
		}
	}

	// Kill the shard those reads were served by.
	victim := c.primaryOf(100)
	name := r.nodes[victim].name
	c.Chaos[victim].Kill()

	// Every read keeps flowing, and the acked pre-kill write is still
	// readable.
	for i := 0; i < 20; i++ {
		if v, ok := readValue(t, h, fmt.Sprintf("reader-%d", i), 100); !ok || v != "pre-kill" {
			t.Fatalf("post-kill read %d lost the acked write: (%q, %v)", i, v, ok)
		}
	}

	// Writes during the outage ack against the survivors and stay
	// readable through the router.
	resp, body = query(t, h, "w", `INSERT INTO items VALUES (200, 'during-outage')`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outage write: HTTP %d: %s", resp.StatusCode, body)
	}
	for i := 0; i < 10; i++ {
		if v, ok := readValue(t, h, fmt.Sprintf("outage-reader-%d", i), 200); !ok || v != "during-outage" {
			t.Fatalf("outage write unreadable via router: (%q, %v)", v, ok)
		}
	}

	// /healthz reports the degraded peer by name.
	health := healthOf(t, h)
	if health.Status != "degraded" {
		t.Fatalf("health status = %q, want degraded", health.Status)
	}
	for _, p := range health.Peers {
		want := "ok"
		if p.Name == name {
			want = "down"
		}
		if p.Status != want {
			t.Errorf("peer %s reported %q, want %q", p.Name, p.Status, want)
		}
	}
	if v := r.peerDown.Value(); v != 1 {
		t.Errorf("cluster_peer_down = %d, want 1", v)
	}
	if r.readFailover.Value() == 0 {
		t.Error("cluster_read_failovers_total = 0; reads of the dead primary's key never failed over")
	}

	// Revive the shard; the probe lands it writes-only, and the
	// automated catch-up restores full health — with the data.
	c.Chaos[victim].Revive()
	r.ExchangeNow()
	if st := peerStatus(healthOf(t, h), name); st != "resync" {
		t.Fatalf("revived peer status = %q, want resync", st)
	}
	resp, body = do(t, h, http.MethodPost, "/admin/resync", "", fmt.Sprintf(`{"name":%q}`, name))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resync: HTTP %d: %s", resp.StatusCode, body)
	}
	if health := healthOf(t, h); health.Status != "ok" {
		t.Fatalf("post-resync health = %q, want ok", health.Status)
	}
	if v := r.peerDown.Value(); v != 0 {
		t.Errorf("post-resync cluster_peer_down = %d, want 0", v)
	}
	if v, ok := readValue(t, c.Shards[victim], "probe", 200); !ok || v != "during-outage" {
		t.Fatalf("catch-up did not deliver the outage write to %s: (%q, %v)", name, v, ok)
	}
}

// TestProbeRevivalIsWritesOnly: the anti-entropy health probe may
// discover a down peer answering again, but reachability says nothing
// about the writes it missed while down. So probe revival lands the
// peer in writes-only resync: it receives new writes (so it stops
// falling behind) but serves no reads until POST /admin/resync has
// copied it the writes it missed.
func TestProbeRevivalIsWritesOnly(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Tuples: 20})
	r, h := c.Router, c.Handler
	victim := c.primaryOf(300)
	node, name := r.nodes[victim], r.nodes[victim].name

	// Kill the victim; a write latches it down and acks on the survivors.
	c.Chaos[victim].Kill()
	if resp, body := query(t, h, "w", `INSERT INTO items VALUES (300, 'missed')`); resp.StatusCode != http.StatusOK {
		t.Fatalf("outage write: HTTP %d: %s", resp.StatusCode, body)
	}
	if !node.Down() {
		t.Fatal("dead shard not latched down by the write")
	}

	// Transport heals; the next exchange round's probe revives the
	// peer — onto the write plane only.
	c.Chaos[victim].Revive()
	if err := r.ExchangeNow(); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if node.Down() {
		t.Fatal("revived peer still latched down")
	}
	if !node.Resync() {
		t.Fatal("probe revival cleared the peer into full rotation; want writes-only resync")
	}
	if v := r.peerResync.Value(); v != 1 {
		t.Errorf("cluster_peer_resync = %d, want 1", v)
	}

	// Reads of the key whose primary is the resync peer must avoid it,
	// and every one of them must see the write it missed.
	preReads := c.Shields[victim].QueriesServed()
	for i := 0; i < 12; i++ {
		if v, ok := readValue(t, h, fmt.Sprintf("rdr-%d", i), 300); !ok || v != "missed" {
			t.Fatalf("read %d lost the acked write (served by an un-resynced replica?): (%q, %v)", i, v, ok)
		}
	}
	if got := c.Shields[victim].QueriesServed(); got != preReads {
		t.Fatalf("resync peer served %d reads; it is missing acked writes", got-preReads)
	}

	// New writes keep reaching the resync peer.
	if resp, body := query(t, h, "w", `INSERT INTO items VALUES (301, 'post-revival')`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-revival write: HTTP %d: %s", resp.StatusCode, body)
	}
	if v, ok := readValue(t, c.Shards[victim], "probe", 301); !ok || v != "post-revival" {
		t.Errorf("resync peer missed a post-revival write: (%q, %v)", v, ok)
	}

	// /healthz names the resync peer and stays degraded.
	health := healthOf(t, h)
	if health.Status != "degraded" {
		t.Fatalf("health status = %q with a resync peer, want degraded", health.Status)
	}
	if st := peerStatus(health, name); st != "resync" {
		t.Fatalf("healthz reports %s as %q, want resync", name, st)
	}

	// Resync copies it the write it missed, then returns it to the read
	// rotation.
	if resp, body := do(t, h, http.MethodPost, "/admin/resync", "", fmt.Sprintf(`{"name":%q}`, name)); resp.StatusCode != http.StatusOK {
		t.Fatalf("resync: HTTP %d: %s", resp.StatusCode, body)
	}
	if node.Resync() || node.Down() {
		t.Fatal("resync did not clear the latches")
	}
	if v, ok := readValue(t, c.Shards[victim], "probe", 300); !ok || v != "missed" {
		t.Fatalf("resync did not deliver the missed write: (%q, %v)", v, ok)
	}
	if health := healthOf(t, h); health.Status != "ok" {
		t.Fatalf("post-resync health = %q, want ok", health.Status)
	}
}

// writeFailTransport simulates a replica whose durable write path is
// broken: INSERTs on /query answer HTTP 500 (the process is alive and
// answering — no transport failure, no down latch) while everything
// else passes through.
type writeFailTransport struct {
	inner transport
	fail  atomic.Bool
}

func (f *writeFailTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if f.fail.Load() && c.method == http.MethodPost && c.path == "/query" && bytes.Contains(c.body, []byte("INSERT")) {
		return reply{status: http.StatusInternalServerError, body: []byte(`{"error":"wal: disk failure"}`)}, nil
	}
	return f.inner.roundTrip(ctx, c)
}

// TestWriteDivergenceQuarantinesShard: when the router acks a write,
// a reachable shard that answered the same statement with an error has
// diverged from the replica set — it must leave the read path
// (writes-only resync) instead of staying in rotation serving reads
// that are missing acked writes.
func TestWriteDivergenceQuarantinesShard(t *testing.T) {
	fails := make([]*writeFailTransport, 3)
	c := newTestCluster(t, clusterOpts{Tuples: 20, Wrap: func(i int, next transport) transport {
		fails[i] = &writeFailTransport{inner: next}
		return fails[i]
	}})
	r, h := c.Router, c.Handler
	victim := c.primaryOf(400)

	fails[victim].fail.Store(true)
	resp, body := query(t, h, "w", `INSERT INTO items VALUES (400, 'diverged')`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write: HTTP %d: %s — two healthy replicas accepted it", resp.StatusCode, body)
	}
	if !r.nodes[victim].Resync() {
		t.Fatal("diverged shard still in full rotation")
	}
	if r.nodes[victim].Down() {
		t.Fatal("diverged shard latched down; it is alive, just diverged")
	}
	if v := r.writeDiverged.Value(); v != 1 {
		t.Errorf("cluster_write_diverged_total = %d, want 1", v)
	}

	// Every read sees the acked write; none is served by the diverged
	// replica that rejected it.
	preReads := c.Shields[victim].QueriesServed()
	for i := 0; i < 12; i++ {
		if v, ok := readValue(t, h, fmt.Sprintf("rdr-%d", i), 400); !ok || v != "diverged" {
			t.Fatalf("read %d missed the acked write: (%q, %v)", i, v, ok)
		}
	}
	if got := c.Shields[victim].QueriesServed(); got != preReads {
		t.Fatalf("diverged shard served %d reads while quarantined", got-preReads)
	}
}

// TestConcurrentWritesConvergeReplicas: non-commutative writes from
// concurrent clients must leave every replica in the same final state
// — the partition's write lock makes all replicas apply one order.
func TestConcurrentWritesConvergeReplicas(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Tuples: 10})
	const writers = 4
	const iters = 8
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				sql := fmt.Sprintf(`UPDATE items SET v = 'w%d-%d' WHERE id = 5`, wid, k)
				resp, body := query(t, c.Handler, fmt.Sprintf("writer-%d", wid), sql)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d iter %d: HTTP %d: %s", wid, k, resp.StatusCode, body)
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	vals := make([]string, len(c.Shards))
	for i, sh := range c.Shards {
		v, ok := readValue(t, sh, "probe", 5)
		if !ok {
			t.Fatalf("shard %d lost row 5", i)
		}
		vals[i] = v
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[0] {
			t.Fatalf("replicas diverged after concurrent UPDATEs: %v", vals)
		}
	}
}

// panicTransport panics inside the shard on POST /query, as a shard
// handler with a bug would.
type panicTransport struct{ inner transport }

func (p panicTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if c.method == http.MethodPost && c.path == "/query" {
		panic("shard bug")
	}
	return p.inner.roundTrip(ctx, c)
}

// TestShardPanicDoesNotLeakInflight: a panic inside a local shard
// unwinds through the forward path up to the router's recovery
// middleware; both the per-node and the router-wide in-flight counts
// must be restored or /healthz and the in-flight cap skew forever.
func TestShardPanicDoesNotLeakInflight(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 1, Wrap: func(_ int, next transport) transport {
		return panicTransport{inner: next}
	}})
	for _, sql := range []string{
		`SELECT * FROM items WHERE id = 1`,         // replica read
		`INSERT INTO items VALUES (1, 'x')`,        // group write
		`CREATE TABLE t (id INT PRIMARY KEY)`,      // broadcast
		`EXPLAIN SELECT * FROM items WHERE id = 1`, // any-shard
	} {
		resp, _ := query(t, c.Handler, "x", sql)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s on a panicking shard: HTTP %d, want 500 from recovery", sql, resp.StatusCode)
		}
		if v := c.Router.nodes[0].InFlight(); v != 0 {
			t.Errorf("%s: node in-flight leaked after panic: %d", sql, v)
		}
		if v := c.Router.inflight.Value(); v != 0 {
			t.Errorf("%s: router in-flight leaked after panic: %d", sql, v)
		}
	}
	// The locks the write paths held unwound too: a healthy statement
	// still gets through.
	if hr := healthOf(t, c.Handler); hr.Status != "ok" {
		t.Errorf("health after panics = %q, want ok", hr.Status)
	}
}

// TestAllShardsDown checks the router's terminal degradation: with no
// healthy peer, reads and writes answer 503 instead of hanging.
func TestAllShardsDown(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 1, Tuples: 10})
	c.Chaos[0].Kill()
	// First query latches the peer down (transport error on the walk).
	resp, _ := query(t, c.Handler, "x", `SELECT * FROM items WHERE id = 1`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read with dead shard: HTTP %d, want 503", resp.StatusCode)
	}
	// Now latched: every path answers 503 cleanly.
	for _, sql := range []string{
		`SELECT * FROM items WHERE id = 1`,
		`SELECT COUNT(*) FROM items`,
		`INSERT INTO items VALUES (50, 'x')`,
		`INSERT INTO nowhere VALUES (50, 'x')`,
		`UPDATE items SET v = 'x' WHERE id > 3`,
		`CREATE TABLE t (id INT PRIMARY KEY)`,
	} {
		if resp, body := query(t, c.Handler, "x", sql); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s with every shard latched: HTTP %d (%s), want 503", sql, resp.StatusCode, body)
		}
	}
	if resp, _ := do(t, c.Handler, http.MethodPost, "/register", "", `{"identity":"acct-1"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("register with every shard latched: HTTP %d, want 503", resp.StatusCode)
	}
}
