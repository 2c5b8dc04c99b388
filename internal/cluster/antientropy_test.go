package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/detect"
)

// detectCfg is the detection policy the anti-entropy tests run: 60%
// grace, so any single shard's slice of a scan (a scan scatters to one
// replica per partition; the ring hands one shard up to ~2/3 of the
// partitions at 2 shards, ~1/2 at 3) stays under it while the union
// view does not; ×8 cap.
func detectCfg() *detect.Config {
	return &detect.Config{
		Policy: detect.EscalationPolicy{Grace: 0.60, Cap: 8},
	}
}

// TestAntiEntropyRestoresGlobalCoverage is the subsystem's core
// property: a principal whose scan is split across shards stays under
// every local coverage threshold until an exchange round unions the
// sketches — after which every shard prices it like a single node that
// saw the whole stream.
func TestAntiEntropyRestoresGlobalCoverage(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 200, Detect: detectCfg()})
	r, h, shields := c.Router, c.Handler, c.Shields

	// A scan scatters: each shard answers for the partitions it is
	// primary of and sees its share of the ¾ of the catalog scanned
	// (under the 60% grace); the union is the whole ¾.
	if resp, body := query(t, h, "splitter", `SELECT * FROM items WHERE id <= 150`); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	for i, sh := range shields {
		if m := sh.Detector().Multiplier("splitter"); m != 1 {
			t.Fatalf("shard %d multiplier %v before exchange, want 1 (local view under grace)", i, m)
		}
	}

	if err := r.ExchangeNowFloor(0.05); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	for i, sh := range shields {
		if m := sh.Detector().Multiplier("splitter"); m <= 1 {
			t.Fatalf("shard %d multiplier %v after exchange, want > 1 (union is a full scan)", i, m)
		}
	}

	// Metrics: one round, sketches moved, nothing rejected.
	resp, body := do(t, h, http.MethodGet, "/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("metrics unavailable")
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if v := m["cluster_antientropy_rounds_total"].(float64); v != 1 {
		t.Errorf("rounds = %v, want 1", v)
	}
	if v := m["cluster_antientropy_sketch_bytes_total"].(float64); v <= 0 {
		t.Errorf("sketch bytes = %v, want > 0", v)
	}
	if v := m["cluster_antientropy_principals_total"].(float64); v != 2 {
		t.Errorf("principals exchanged = %v, want 2 (one delta per shard)", v)
	}
	if v := m["cluster_antientropy_rejected_total"].(float64); v != 0 {
		t.Errorf("rejected = %v, want 0", v)
	}

	// Idempotence / no echo: a second round with no new observations
	// moves nothing — absorbed sketches are not re-exported.
	if err := r.ExchangeNowFloor(0.05); err != nil {
		t.Fatalf("second exchange: %v", err)
	}
	_, body = do(t, h, http.MethodGet, "/metrics", "", "")
	json.Unmarshal(body, &m)
	if v := m["cluster_antientropy_principals_total"].(float64); v != 2 {
		t.Errorf("principals after idle round = %v, want still 2 (echo)", v)
	}
}

// TestAntiEntropyExportFloor keeps low-coverage principals local: only
// sketches above the floor gossip, so millions of legitimate users
// never cost exchange bandwidth.
func TestAntiEntropyExportFloor(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 200, Detect: detectCfg()})
	r, h, shields := c.Router, c.Handler, c.Shields

	// A heavy splitter (its scan scatters over both shards), then a
	// tiny reader whose point query lands on one shard only.
	query(t, h, "splitter", `SELECT * FROM items WHERE id <= 150`)
	query(t, h, "casual", `SELECT * FROM items WHERE id = 5`)

	if err := r.ExchangeNowFloor(0.10); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	// The splitter's union reached both shards; the casual reader's
	// sketch crossed nowhere.
	casualTracked := 0
	for _, sh := range shields {
		if m := sh.Detector().Multiplier("splitter"); m <= 1 {
			t.Errorf("splitter multiplier %v, want > 1", m)
		}
		for _, s := range sh.Detector().Suspects(0) {
			if s.Principal == "casual" {
				casualTracked++
			}
		}
	}
	if casualTracked != 1 {
		t.Errorf("casual reader tracked on %d shards, want 1 (below the export floor)", casualTracked)
	}
}

// TestAntiEntropyRoutesAroundDeadPeer: a dead shard neither stalls the
// round nor poisons it; the survivors still converge, and the round
// latches the peer down.
func TestAntiEntropyRoutesAroundDeadPeer(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 3, Tuples: 200, Detect: detectCfg()})
	r, h, shieldAt, nodes := c.Router, c.Handler, c.Shields, c.Router.Nodes()

	// The scan spreads over the three shards, about a third each.
	if resp, body := query(t, h, "splitter", `SELECT * FROM items`); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}

	c.Chaos[2].Kill()
	if err := r.ExchangeNowFloor(0.05); err == nil {
		t.Fatal("exchange reported success with a dead peer")
	}
	// The survivors exchanged: both hold the union of shards 0+1
	// (~2/3 of the catalog > the 60% grace → escalated).
	for i := 0; i < 2; i++ {
		if m := shieldAt[i].Detector().Multiplier("splitter"); m <= 1 {
			t.Errorf("surviving shard %d multiplier %v, want > 1", i, m)
		}
	}
	if !nodes[2].Down() {
		t.Error("dead peer not latched down by the exchange")
	}
	// The exchange's calls keep the same books as a query's: the failure
	// that latched the peer is one peer error, and the next round's probe
	// of a peer already known to be down adds nothing.
	if v := r.peerErrors.Value(); v != 1 {
		t.Errorf("cluster_peer_errors_total = %d after the exchange found the peer dead, want 1", v)
	}
	if v := r.peerDown.Value(); v != 1 {
		t.Errorf("cluster_peer_down = %d, want 1", v)
	}
	if err := r.ExchangeNowFloor(0.05); err != nil {
		t.Errorf("exchange among the survivors: %v", err)
	}
	if v := r.peerErrors.Value(); v != 1 {
		t.Errorf("cluster_peer_errors_total = %d after probing a peer already down, want still 1", v)
	}

	// Revive: the next round's health probe clears the down latch into
	// writes-only resync — reachability proves nothing about the
	// fan-out writes the peer missed — and the straggler's sketches
	// catch up to the full union through the exchange.
	c.Chaos[2].Revive()
	if err := r.ExchangeNowFloor(0.05); err != nil {
		t.Fatalf("post-revival exchange: %v", err)
	}
	if nodes[2].Down() {
		t.Error("revived peer still latched down after a successful probe")
	}
	if !nodes[2].Resync() {
		t.Error("probe revival landed the peer back in full rotation; want writes-only resync until /admin/resync")
	}
	if m := shieldAt[2].Detector().Multiplier("splitter"); m <= 1 {
		t.Errorf("revived shard multiplier %v, want > 1 after catch-up", m)
	}
}

// sketchPushFailTransport passes everything through except POST
// /admin/sketches, which answers HTTP 500 while fail is set — a shard
// that is alive (no down latch) but whose absorb endpoint errors.
type sketchPushFailTransport struct {
	inner transport
	fail  atomic.Bool
}

func (f *sketchPushFailTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if f.fail.Load() && c.method == http.MethodPost && c.path == "/admin/sketches" {
		return reply{status: http.StatusInternalServerError, body: []byte(`{"error":"absorb failed"}`)}, nil
	}
	return f.inner.roundTrip(ctx, c)
}

// TestPushFailureRetainsWatermarks: a push that fails with an HTTP
// error (the shard answered, so nothing latches down and no revival
// reset will ever rescue it) must not advance the source watermarks —
// the next round re-pulls the same deltas and re-delivers them, so the
// failed peer misses the sketches for one round, not forever.
func TestPushFailureRetainsWatermarks(t *testing.T) {
	fails := make([]*sketchPushFailTransport, 2)
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 200, Detect: detectCfg(),
		Wrap: func(i int, next transport) transport {
			fails[i] = &sketchPushFailTransport{inner: next}
			return fails[i]
		}})
	r, h, shieldAt, nodes := c.Router, c.Handler, c.Shields, c.Router.Nodes()

	// One principal's scan spreads over both shards: each local share
	// is under grace, the union is not.
	if resp, body := query(t, h, "splitter", `SELECT * FROM items WHERE id <= 150`); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}

	fails[1].fail.Store(true)
	if err := r.ExchangeNowFloor(0.05); err == nil {
		t.Fatal("exchange reported success despite a failed push")
	}
	if nodes[1].Down() {
		t.Fatal("HTTP-error push latched the peer down; it answered, it is alive")
	}
	if m := shieldAt[0].Detector().Multiplier("splitter"); m <= 1 {
		t.Errorf("shard 0 multiplier %v, want > 1 (its push succeeded)", m)
	}
	if m := shieldAt[1].Detector().Multiplier("splitter"); m > 1 {
		t.Fatalf("shard 1 multiplier %v before any successful push", m)
	}

	// Next round, endpoint healed: the same deltas are re-pulled and
	// re-delivered; the bound is one round of staleness, not forever.
	fails[1].fail.Store(false)
	if err := r.ExchangeNowFloor(0.05); err != nil {
		t.Fatalf("post-heal exchange: %v", err)
	}
	if m := shieldAt[1].Detector().Multiplier("splitter"); m <= 1 {
		t.Errorf("shard 1 multiplier %v after the push retried, want > 1 — the delta was dropped by an advanced watermark", m)
	}
}
