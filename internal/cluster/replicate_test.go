package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestReplicatedPointReadFailsOver: with R=2, killing a key's primary
// replica keeps point reads of that key flowing — the group walk fails
// over to the surviving replica, the dead peer latches down, and after
// revive + resync the cluster returns to full health.
func TestReplicatedPointReadFailsOver(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 32, Config: Config{Partitions: 16, Replication: 2}})
	r, h, chaos := c.Router, c.Handler, c.Chaos
	pm := r.CurrentPartitionMap()

	const key = 7
	group := pm.GroupOf(pm.PartitionOf(key))
	if len(group) != 2 {
		t.Fatalf("replica group = %v, want 2 members", group)
	}
	primary := group[0]
	chaos[primary].Kill()

	for i := 0; i < 5; i++ {
		v, ok := readValue(t, h, fmt.Sprintf("reader-%d", i), key)
		if !ok || v != fmt.Sprintf("v%d", key) {
			t.Fatalf("post-kill read %d: got (%q, %v), want (\"v%d\", true)", i, v, ok, key)
		}
	}
	if r.readFailover.Value() == 0 && r.readRetries.Value() == 0 {
		t.Error("no failover or retry recorded; the kill was never exercised")
	}
	if st := peerStatus(healthOf(t, h), r.nodes[primary].name); st != "down" {
		t.Fatalf("killed primary status = %q, want down", st)
	}

	// Revive; the probe lands it writes-only, resync restores reads.
	chaos[primary].Revive()
	r.ExchangeNow()
	if st := peerStatus(healthOf(t, h), r.nodes[primary].name); st != "resync" {
		t.Fatalf("revived primary status = %q, want resync", st)
	}
	resp, body := do(t, h, http.MethodPost, "/admin/resync", "",
		fmt.Sprintf(`{"name":%q}`, r.nodes[primary].name))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resync: HTTP %d: %s", resp.StatusCode, body)
	}
	if hr := healthOf(t, h); hr.Status != "ok" {
		t.Fatalf("post-resync health = %q, want ok", hr.Status)
	}
}

// TestReplicatedWriteSurvivesDeadReplicaAndResync: a write acked while
// one replica is dead must remain readable through the outage, and the
// automated catch-up must deliver it to the revived replica — verified
// by querying that shard's handler directly.
func TestReplicatedWriteSurvivesDeadReplicaAndResync(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 32, Config: Config{Partitions: 16, Replication: 2}})
	r, h, handlers, chaos := c.Router, c.Handler, c.Shards, c.Chaos
	pm := r.CurrentPartitionMap()

	const key = 11
	group := pm.GroupOf(pm.PartitionOf(key))
	dead := group[1]
	chaos[dead].Kill()

	resp, body := query(t, h, "writer", fmt.Sprintf(`UPDATE items SET v = 'outage' WHERE id = %d`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outage write: HTTP %d: %s", resp.StatusCode, body)
	}
	if v, ok := readValue(t, h, "reader", key); !ok || v != "outage" {
		t.Fatalf("acked write unreadable during outage: (%q, %v)", v, ok)
	}

	chaos[dead].Revive()
	r.ExchangeNow()
	// Still resync: reads must keep coming from the caught-up replica.
	if v, ok := readValue(t, h, "reader-2", key); !ok || v != "outage" {
		t.Fatalf("acked write unreadable while peer resyncs: (%q, %v)", v, ok)
	}
	resp, body = do(t, h, http.MethodPost, "/admin/resync", "",
		fmt.Sprintf(`{"name":%q}`, r.nodes[dead].name))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resync: HTTP %d: %s", resp.StatusCode, body)
	}
	// The revived shard itself — asked directly, off the router's read
	// plane — must now hold the write it missed.
	if v, ok := readValue(t, handlers[dead], "probe", key); !ok || v != "outage" {
		t.Fatalf("catch-up did not deliver the missed write to %s: (%q, %v)", r.nodes[dead].name, v, ok)
	}
	if hr := healthOf(t, h); hr.Status != "ok" {
		t.Fatalf("post-resync health = %q, want ok", hr.Status)
	}
}

// TestRebalanceMovesTuplesAutomatically is the ISSUE's acceptance
// test: POST /admin/rebalance with a map that reassigns a partition
// triggers the background migrator, and after it reports done the
// tuples have physically moved — the gainer answers for them directly,
// the loser no longer holds them, and every key stays readable through
// the router across the cutover.
func TestRebalanceMovesTuplesAutomatically(t *testing.T) {
	const tuples = 64
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: tuples, Config: Config{Partitions: 16}})
	r, h, nodes := c.Router, c.Handler, c.Router.Nodes()
	pm := r.CurrentPartitionMap()

	// Pick the partition owning key 1 and move it to the next node.
	part := pm.PartitionOf(1)
	loser := pm.Owners[part]
	gainer := (loser + 1) % 4
	moved := []int{}
	for k := 1; k <= tuples; k++ {
		if pm.PartitionOf(int64(k)) == part {
			moved = append(moved, k)
		}
	}
	if len(moved) == 0 {
		t.Fatal("no keys in the chosen partition")
	}

	groups := groupNames(r, pm)
	groups[part] = []string{nodes[gainer].name}
	up, _ := json.Marshal(PartitionMapUpdate{Version: pm.Version + 1, Replicas: groups, Wait: true})
	resp, body := do(t, h, http.MethodPost, "/admin/rebalance", "", string(up))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: HTTP %d: %s", resp.StatusCode, body)
	}

	// Progress endpoint: terminal, successful, and it counted the move.
	resp, body = do(t, h, http.MethodGet, "/admin/rebalance", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance progress: HTTP %d", resp.StatusCode)
	}
	var prog MigrationProgress
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Active || prog.State != "done" {
		t.Fatalf("migration state = %+v, want done", prog)
	}
	if prog.TuplesCopied < int64(len(moved)) {
		t.Errorf("tuples_copied = %d, want >= %d", prog.TuplesCopied, len(moved))
	}
	if v := r.CurrentPartitionMap().Version; v != pm.Version+1 {
		t.Fatalf("map version = %d, want %d", v, pm.Version+1)
	}

	// Ownership proof by direct shard reads: the gainer holds every
	// moved key, the loser none of them.
	for _, k := range moved {
		if v, ok := readValue(t, c.Shards[gainer], "probe-gainer", k); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("gainer %s missing moved key %d: (%q, %v)", nodes[gainer].name, k, v, ok)
		}
		if _, ok := readValue(t, c.Shards[loser], "probe-loser", k); ok {
			t.Fatalf("loser %s still holds moved key %d after purge", nodes[loser].name, k)
		}
	}
	// And the router still serves everything.
	for k := 1; k <= tuples; k++ {
		if v, ok := readValue(t, h, "after", k); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d unreadable after rebalance: (%q, %v)", k, v, ok)
		}
	}

	// /healthz aggregates the partition state and migration outcome.
	hr := healthOf(t, h)
	if hr.PartitionVersion != pm.Version+1 || hr.Partitions != 16 || hr.Replication != 1 {
		t.Errorf("healthz partition state = v%d/%d/R%d, want v%d/16/R1",
			hr.PartitionVersion, hr.Partitions, hr.Replication, pm.Version+1)
	}
	if hr.Migration == nil || hr.Migration.State != "done" {
		t.Errorf("healthz migration = %+v, want done", hr.Migration)
	}
}

// TestRebalanceRollsBackOnDeadGainer: a migration that cannot deliver
// a slice to its gainer must roll back — old map intact, every key
// still readable, terminal state reported.
func TestRebalanceRollsBackOnDeadGainer(t *testing.T) {
	const tuples = 32
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: tuples, Config: Config{Partitions: 16}})
	r, h, chaos := c.Router, c.Handler, c.Chaos
	pm := r.CurrentPartitionMap()

	part := pm.PartitionOf(1)
	loser := pm.Owners[part]
	gainer := (loser + 1) % 4
	chaos[gainer].Kill()

	groups := groupNames(r, pm)
	groups[part] = []string{r.nodes[gainer].name}
	up, _ := json.Marshal(PartitionMapUpdate{Version: pm.Version + 1, Replicas: groups, Wait: true})
	resp, body := do(t, h, http.MethodPost, "/admin/rebalance", "", string(up))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("rebalance with dead gainer: HTTP %d, want 502: %s", resp.StatusCode, body)
	}
	resp, body = do(t, h, http.MethodGet, "/admin/rebalance", "", "")
	var prog MigrationProgress
	json.Unmarshal(body, &prog)
	if resp.StatusCode != http.StatusOK || prog.Active || prog.State != "rolled_back" {
		t.Fatalf("migration state = %+v, want rolled_back", prog)
	}
	if v := r.CurrentPartitionMap().Version; v != pm.Version {
		t.Fatalf("rollback left map at v%d, want v%d", v, pm.Version)
	}
	chaos[gainer].Revive()
	r.ExchangeNow()
	do(t, h, http.MethodPost, "/admin/resync", "", fmt.Sprintf(`{"name":%q}`, r.nodes[gainer].name))
	for k := 1; k <= tuples; k++ {
		if v, ok := readValue(t, h, "after", k); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d unreadable after rollback: (%q, %v)", k, v, ok)
		}
	}
}

// TestCatchUpPeerRefusesStaleReplica pins the latch-order rule: when
// every replica of a partition has left the read plane, only the
// freshest copy (the last to latch — it witnessed every ack) may be
// cleared without a source; a staler replica must be refused with the
// blocker's name until the authoritative one is back. Clearing in the
// wrong order would purge the complete copy from the stale one.
func TestCatchUpPeerRefusesStaleReplica(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 2, Tuples: 8, Config: Config{Partitions: 8, Replication: 2}})
	r, h, handlers, chaos := c.Router, c.Handler, c.Shards, c.Chaos
	pm := r.CurrentPartitionMap()

	const key = 1
	group := pm.GroupOf(pm.PartitionOf(key))
	first, second := group[0], group[1]
	firstName, secondName := r.nodes[first].name, r.nodes[second].name

	// second dies; an acked write lands only on first.
	chaos[second].Kill()
	if resp, body := query(t, h, "w", fmt.Sprintf(`UPDATE items SET v = 'acked' WHERE id = %d`, key)); resp.StatusCode != http.StatusOK {
		t.Fatalf("write with one replica down: HTTP %d: %s", resp.StatusCode, body)
	}
	// second revives into writes-only resync (it missed the ack).
	chaos[second].Revive()
	r.ExchangeNow()
	if st := peerStatus(healthOf(t, h), secondName); st != "resync" {
		t.Fatalf("%s status = %q, want resync", secondName, st)
	}

	// Now first dies too. A write reaching only the resync replica is
	// not an ack.
	chaos[first].Kill()
	resp, body := query(t, h, "w", fmt.Sprintf(`UPDATE items SET v = 'unacked' WHERE id = %d`, key))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("resync-only write: HTTP %d, want 503: %s", resp.StatusCode, body)
	}

	// Catch-up must refuse the stale replica and name the fresh one.
	resp, body = do(t, h, http.MethodPost, "/admin/resync", "", fmt.Sprintf(`{"name":%q}`, secondName))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resync of stale replica: HTTP %d, want 409: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), firstName) {
		t.Fatalf("refusal does not name the authoritative replica %s: %s", firstName, body)
	}

	// Recover in the right order: the freshest clears sourceless, the
	// stale one then copies from it.
	chaos[first].Revive()
	r.ExchangeNow()
	for _, name := range []string{firstName, secondName} {
		if resp, body := do(t, h, http.MethodPost, "/admin/resync", "", fmt.Sprintf(`{"name":%q}`, name)); resp.StatusCode != http.StatusOK {
			t.Fatalf("resync %s: HTTP %d: %s", name, resp.StatusCode, body)
		}
	}
	if hr := healthOf(t, h); hr.Status != "ok" {
		t.Fatalf("post-recovery health = %q, want ok", hr.Status)
	}
	// The acked value survived everywhere; the unacked overwrite that
	// reached only the stale replica was purged by its catch-up copy.
	if v, ok := readValue(t, h, "r", key); !ok || v != "acked" {
		t.Fatalf("router read = (%q, %v), want acked", v, ok)
	}
	for i, hd := range handlers {
		if v, ok := readValue(t, hd, fmt.Sprintf("probe-%d", i), key); !ok || v != "acked" {
			t.Fatalf("shard %d holds (%q, %v), want acked", i, v, ok)
		}
	}
}

// TestClusterRPCFaultReadRetries: an injected cluster.rpc error on a
// replicated point read latches the struck peer and the bounded retry
// reroutes to the surviving replica — the client sees 200.
func TestClusterRPCFaultReadRetries(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 32, Config: Config{Partitions: 16, Replication: 2}})
	r, h := c.Router, c.Handler
	t.Cleanup(fault.Disable)
	fault.Enable(fault.NewRegistry(1).
		Add(fault.Rule{Site: fault.ClusterRPC, Kind: fault.Error, Count: 1}))

	if v, ok := readValue(t, h, "reader", 3); !ok || v != "v3" {
		t.Fatalf("read under rpc fault = (%q, %v), want v3", v, ok)
	}
	fault.Disable()
	if r.readRetries.Value() == 0 && r.readFailover.Value() == 0 {
		t.Error("injected rpc error produced no retry and no failover")
	}
	if hr := healthOf(t, h); hr.Status != "degraded" {
		t.Errorf("struck peer not latched: health = %q", hr.Status)
	}
}

// TestClusterFanoutFaultQuarantinesDivergentReplica: dropping one leg
// of a replicated group write still acks the write (the sibling
// answered) and quarantines the replica that missed it writes-only.
func TestClusterFanoutFaultQuarantinesDivergentReplica(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 32, Config: Config{Partitions: 16, Replication: 2}})
	r, h := c.Router, c.Handler
	t.Cleanup(fault.Disable)
	fault.Enable(fault.NewRegistry(1).
		Add(fault.Rule{Site: fault.ClusterFanout, Kind: fault.Error, Count: 1}))

	resp, body := query(t, h, "w", `UPDATE items SET v = 'divergent' WHERE id = 5`)
	fault.Disable()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write with one dropped leg: HTTP %d: %s", resp.StatusCode, body)
	}
	if r.writeDiverged.Value() == 0 {
		t.Fatal("dropped fan leg did not quarantine the divergent replica")
	}
	hr := healthOf(t, h)
	resyncs := 0
	var name string
	for _, p := range hr.Peers {
		if p.Status == "resync" {
			resyncs++
			name = p.Name
		}
	}
	if resyncs != 1 {
		t.Fatalf("resync peers = %d, want exactly 1: %+v", resyncs, hr.Peers)
	}
	// The acked value stays readable, and catch-up repairs the hole.
	if v, ok := readValue(t, h, "r", 5); !ok || v != "divergent" {
		t.Fatalf("acked write = (%q, %v), want divergent", v, ok)
	}
	if resp, body := do(t, h, http.MethodPost, "/admin/resync", "", fmt.Sprintf(`{"name":%q}`, name)); resp.StatusCode != http.StatusOK {
		t.Fatalf("resync: HTTP %d: %s", resp.StatusCode, body)
	}
	if hr := healthOf(t, h); hr.Status != "ok" {
		t.Fatalf("post-resync health = %q, want ok", hr.Status)
	}
}

// TestClusterFanoutFaultOnScatterWrite: the fan-out failpoint reaches
// scatter legs too. One dropped leg of a predicate UPDATE at R=2 leaves
// every partition with a sibling that applied it, so the write acks, and
// the replica whose leg was dropped missed an acked write: it is
// latched writes-only until a resync repairs it.
func TestClusterFanoutFaultOnScatterWrite(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 32, Config: Config{Partitions: 16, Replication: 2}})
	r, h := c.Router, c.Handler
	t.Cleanup(fault.Disable)
	fault.Enable(fault.NewRegistry(1).
		Add(fault.Rule{Site: fault.ClusterFanout, Kind: fault.Error, Count: 1}))

	resp, body := query(t, h, "w", `UPDATE items SET v = 'swept' WHERE id > 0`)
	fault.Disable()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter write with one dropped leg: HTTP %d: %s", resp.StatusCode, body)
	}
	if qr := decodeQuery(t, body); qr.Affected != 32 {
		t.Errorf("affected = %d, want the 32 rows", qr.Affected)
	}
	if v := r.writeDiverged.Value(); v != 1 {
		t.Fatalf("cluster_write_diverged_total = %d, want 1: the rule never reached a scatter leg", v)
	}
	var name string
	for _, p := range healthOf(t, h).Peers {
		switch p.Status {
		case "resync":
			if name != "" {
				t.Fatalf("two peers latched resync: %s and %s", name, p.Name)
			}
			name = p.Name
		case "down":
			t.Fatalf("%s latched down; its leg was dropped, the shard is alive", p.Name)
		}
	}
	if name == "" {
		t.Fatal("no peer latched resync")
	}
	// Every row reads back rewritten — none from the replica that missed
	// the write — and catch-up repairs the hole.
	for id := 1; id <= 32; id++ {
		if v, ok := readValue(t, h, "r", id); !ok || v != "swept" {
			t.Fatalf("id %d = (%q, %v) after the acked write, want swept", id, v, ok)
		}
	}
	if resp, body := do(t, h, http.MethodPost, "/admin/resync", "", fmt.Sprintf(`{"name":%q}`, name)); resp.StatusCode != http.StatusOK {
		t.Fatalf("resync: HTTP %d: %s", resp.StatusCode, body)
	}
	if hr := healthOf(t, h); hr.Status != "ok" {
		t.Fatalf("post-resync health = %q, want ok", hr.Status)
	}
}

// outcomeTransport fails one shard's /query calls on demand: reject
// answers them 400, drop fails them at the transport.
type outcomeTransport struct {
	next         transport
	reject, drop atomic.Bool
}

func (o *outcomeTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	if c.path == "/query" {
		if o.reject.Load() {
			return reply{status: http.StatusBadRequest, contentType: "application/json", body: []byte(`{"error":"injected rejection"}` + "\n")}, nil
		}
		if o.drop.Load() {
			return reply{}, errors.New("injected transport failure")
		}
	}
	return o.next.roundTrip(ctx, c)
}

// TestWriteOutcome is the write rule as one table: every write shape
// against every fault, on 4 shards × 16 partitions × R=2 holding ids
// 1..32. Key 5's partition p5 has the replica group {a, b}; c is a
// shard outside it. The faults:
//
//   - drop: cluster.fanout drops the first leg to reach it;
//   - reject: a answers every statement 400;
//   - resync-only: b is latched resync and every other shard answers
//     400, so the only owner that accepts is one no read can route to;
//   - gainer: a migration moving p5 from {a, b} to {a, c} is registered
//     and c's legs fail at the transport.
//
// The split INSERT writes three fresh keys, one of them in p5. resync
// is the role of the one peer left resync ("any" when the dropped leg
// picks it), dirty whether the migration must re-copy p5. An acked row
// write must read back through the router.
func TestWriteOutcome(t *testing.T) {
	type want struct {
		status            int
		affected          int
		diverged, fanErrs int64
		resync            string
		dirty             bool
	}
	shapes := []struct {
		name string
		sql  func(fresh []int) string
		want map[string]want
	}{
		{"keyed", func([]int) string { return `UPDATE items SET v = 'w' WHERE id = 5` }, map[string]want{
			"clean":       {status: 200, affected: 1},
			"drop":        {status: 200, affected: 1, diverged: 1, fanErrs: 1, resync: "any"},
			"reject":      {status: 200, affected: 1, diverged: 1, resync: "a"},
			"resync-only": {status: 400, resync: "b"},
			"gainer":      {status: 200, affected: 1, fanErrs: 1, dirty: true},
		}},
		{"split", func(fresh []int) string {
			return fmt.Sprintf(`INSERT INTO items VALUES (%d, 'w'), (%d, 'w'), (%d, 'w')`, fresh[0], fresh[1], fresh[2])
		}, map[string]want{
			"clean":       {status: 200, affected: 3},
			"drop":        {status: 200, affected: 3, diverged: 1, fanErrs: 1, resync: "any"},
			"reject":      {status: 200, affected: 3, diverged: 1, resync: "a"},
			"resync-only": {status: 400, resync: "b"},
			"gainer":      {status: 200, affected: 3, fanErrs: 1, dirty: true},
		}},
		{"predicate", func([]int) string { return `UPDATE items SET v = 'w' WHERE id > 0` }, map[string]want{
			"clean":       {status: 200, affected: 32},
			"drop":        {status: 200, affected: 32, diverged: 1, fanErrs: 1, resync: "any"},
			"reject":      {status: 200, affected: 32, diverged: 1, resync: "a"},
			"resync-only": {status: 400, resync: "b"},
			"gainer":      {status: 200, affected: 32, fanErrs: 1, dirty: true},
		}},
		{"broadcast", func([]int) string { return `CREATE INDEX items_v ON items (v)` }, map[string]want{
			"clean":       {status: 200},
			"drop":        {status: 200, diverged: 1, fanErrs: 1, resync: "any"},
			"reject":      {status: 200, diverged: 1, resync: "a"},
			"resync-only": {status: 400, resync: "b"},
			"gainer":      {status: 200, fanErrs: 1},
		}},
	}
	for _, sh := range shapes {
		for _, col := range []string{"clean", "drop", "reject", "resync-only", "gainer"} {
			t.Run(sh.name+"/"+col, func(t *testing.T) {
				ft := make([]*outcomeTransport, 4)
				c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 32, Config: Config{Partitions: 16, Replication: 2},
					Wrap: func(i int, next transport) transport {
						ft[i] = &outcomeTransport{next: next}
						return ft[i]
					}})
				r := c.Router
				pm := r.CurrentPartitionMap()
				p5 := pm.PartitionOf(5)
				role := map[string]int{"a": pm.GroupOf(p5)[0], "b": pm.GroupOf(p5)[1]}
				for i := range ft {
					if i != role["a"] && i != role["b"] {
						role["c"] = i
						break
					}
				}
				// Three fresh keys in three partitions, the first in p5.
				fresh, seen := []int{}, map[int]bool{}
				for k := 100; len(fresh) < 3; k++ {
					if p := pm.PartitionOf(int64(k)); !seen[p] && (len(fresh) > 0 || p == p5) {
						fresh, seen[p] = append(fresh, k), true
					}
				}

				switch col {
				case "drop":
					t.Cleanup(fault.Disable)
					fault.Enable(fault.NewRegistry(1).Add(fault.Rule{Site: fault.ClusterFanout, Kind: fault.Error, Count: 1}))
				case "reject":
					ft[role["a"]].reject.Store(true)
				case "resync-only":
					r.nodes[role["b"]].latchResync()
					r.syncPeerDown()
					for i := range ft {
						ft[i].reject.Store(i != role["b"])
					}
				case "gainer":
					target := &PartitionMap{Version: pm.Version + 1, Replicas: make([][]int, len(pm.Owners))}
					for p := range target.Replicas {
						target.Replicas[p] = pm.GroupOf(p)
					}
					target.Replicas[p5] = []int{role["a"], role["c"]}
					if err := r.startMigration(target); err != nil {
						t.Fatal(err)
					}
					ft[role["c"]].drop.Store(true)
				}
				resp, body := query(t, c.Handler, "w", sh.sql(fresh))
				fault.Disable()

				w := sh.want[col]
				got := want{status: resp.StatusCode, diverged: r.writeDiverged.Value(), fanErrs: r.writeFanErr.Value()}
				if resp.StatusCode == http.StatusOK {
					got.affected = decodeQuery(t, body).Affected
				}
				var resync []int
				for i, n := range r.nodes {
					if n.Resync() {
						resync = append(resync, i)
					}
				}
				switch {
				case len(resync) == 0:
				case len(resync) == 1 && w.resync == "any":
					got.resync = "any"
				case len(resync) == 1:
					for name, i := range role {
						if i == resync[0] {
							got.resync = name
						}
					}
				default:
					got.resync = fmt.Sprint(resync)
				}
				if m := r.mig.Load(); m != nil {
					for p := range m.dirty {
						if m.dirty[p].Load() {
							if p != p5 {
								t.Errorf("partition %d marked dirty; only p5 (%d) has a gainer", p, p5)
							}
							got.dirty = true
						}
					}
				}
				if got != w {
					t.Errorf("got %+v, want %+v (reply: %s)", got, w, body)
				}
				// An acked row write reads back, from no replica that missed it.
				if key := map[string]int{"keyed": 5, "split": fresh[0], "predicate": 5}[sh.name]; key > 0 && got.status == http.StatusOK {
					if v, ok := readValue(t, c.Handler, "r", key); !ok || v != "w" {
						t.Errorf("acked write to id %d reads back (%q, %v)", key, v, ok)
					}
				}
			})
		}
	}
}

// TestShardTimeoutLatchesSlowPeer: a peer slower than -shard-timeout
// counts as down — the timeout latches it, the timeout counter ticks,
// and the read fails over to the healthy replica. The injected latency
// is slept in full whatever the load, so it always outruns the timeout;
// the timeout is wide so that the healthy replica never does, also in a
// loaded -race pass (at 5 ms it did, and the read found no replica).
func TestShardTimeoutLatchesSlowPeer(t *testing.T) {
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 32, Config: Config{
		Partitions:   16,
		Replication:  2,
		ShardTimeout: 100 * time.Millisecond,
	}})
	r, h := c.Router, c.Handler
	t.Cleanup(fault.Disable)
	fault.Enable(fault.NewRegistry(1).
		Add(fault.Rule{Site: fault.ClusterRPC, Kind: fault.Latency, Latency: 2 * time.Second, Count: 1}))

	if v, ok := readValue(t, h, "reader", 9); !ok || v != "v9" {
		t.Fatalf("read past slow peer = (%q, %v), want v9", v, ok)
	}
	fault.Disable()
	if r.rpcTimeouts.Value() == 0 {
		t.Error("cluster_rpc_timeouts_total = 0; the slow RPC was not timed out")
	}
	if hr := healthOf(t, h); hr.Status != "degraded" {
		t.Errorf("slow peer not latched: health = %q", hr.Status)
	}
}
