package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/core"
)

// charged is what a shield has charged so far, in tuples.
func charged(s *core.Shield) int64 {
	return s.Metrics().Counter("shield_tuples_charged_total").Value()
}

// TestKeyOrderedTopNMatchesANode holds the router's TopN window to a
// single node holding every row. The statements are ORDER BY id [DESC]
// LIMIT n over bounded and half-open ranges, n from 1 to past the range's
// end, over keys with holes deleted into them; the topologies are R = 1
// and R = 2 over four shards, each whole and with shard 1 down. Every
// reply's rows must be the node's, byte for byte. What the legs charge
// must be what they fetched, and a statement the window alone answers
// must charge, summed over the shards, exactly the node's tuples. One
// that needs the continuation round (a hole in its window) fetches at
// most n−got rows more than it relays from each shard but one, as the
// plain scatter does; the test counts both kinds.
func TestKeyOrderedTopNMatchesANode(t *testing.T) {
	const tuples = 300
	rng := rand.New(rand.NewSource(52))
	var holes []int
	for i := 0; i < 40; i++ {
		holes = append(holes, 1+rng.Intn(tuples))
	}
	node, nodeShield := newShard(t, tuples, nil)
	if _, err := nodeShield.DB().Exec(insertItems(1, tuples)); err != nil {
		t.Fatal(err)
	}
	for _, k := range holes {
		if _, err := nodeShield.DB().Exec(fmt.Sprintf(`DELETE FROM items WHERE id = %d`, k)); err != nil {
			t.Fatal(err)
		}
	}
	// rows is a reply up to its delay, which moves with the shields'
	// history.
	rows := func(reply []byte) []byte {
		return reply[:bytes.LastIndex(reply, []byte(`"affected":`))+1]
	}
	statement := func() (sql string, n int) {
		lo := rng.Intn(tuples+20) - 10
		hi := lo + rng.Intn(80)
		n = 1 + rng.Intn(hi-lo+10)
		cols := []string{"*", "v", "id, v"}[rng.Intn(3)]
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf(`SELECT %s FROM items WHERE id BETWEEN %d AND %d ORDER BY id LIMIT %d`, cols, lo, hi, n), n
		case 1:
			return fmt.Sprintf(`SELECT %s FROM items WHERE id >= %d AND id < %d ORDER BY id DESC LIMIT %d`, cols, lo, hi, n), n
		case 2:
			return fmt.Sprintf(`SELECT %s FROM items WHERE id > %d ORDER BY id LIMIT %d`, cols, lo, n), n
		default:
			return fmt.Sprintf(`SELECT %s FROM items WHERE id <= %d ORDER BY id DESC LIMIT %d`, cols, hi, n), n
		}
	}
	for _, topo := range []struct {
		name        string
		replication int
		down        bool
	}{
		{"R=1", 1, false},
		{"R=2", 2, false},
		{"R=1/shard-1-down", 1, true},
		{"R=2/shard-1-down", 2, true},
	} {
		t.Run(topo.name, func(t *testing.T) {
			c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: tuples, Config: benchConfig(16, topo.replication)})
			for _, k := range holes {
				if resp, body := query(t, c.Handler, "writer", fmt.Sprintf(`DELETE FROM items WHERE id = %d`, k)); resp.StatusCode != http.StatusOK {
					t.Fatalf("DELETE %d: HTTP %d %s", k, resp.StatusCode, body)
				}
			}
			if topo.down {
				c.Chaos[1].Kill()
			}
			windowed, continued, unavailable := 0, 0, 0
			for i := 0; i < 150; i++ {
				sql, n := statement()
				before := charged(nodeShield)
				_, want := query(t, node, "reader", sql)
				nodeCharge := charged(nodeShield) - before
				var legsBefore int64
				for _, s := range c.Shields {
					legsBefore += charged(s)
				}
				fetched, relayed := c.Router.scatterFetched.Value(), c.Router.scatterRelayed.Value()
				resp, got := query(t, c.Handler, "reader", sql)
				if topo.down && topo.replication == 1 && resp.StatusCode == http.StatusServiceUnavailable {
					unavailable++ // a partition the statement needed lived only on shard 1
					continue
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(rows(got), rows(want)) {
					t.Fatalf("%s: HTTP %d\n%s\nthe node answered\n%s", sql, resp.StatusCode, got, want)
				}
				var legCharge int64
				for _, s := range c.Shields {
					legCharge += charged(s)
				}
				legCharge -= legsBefore
				fetched, relayed = c.Router.scatterFetched.Value()-fetched, c.Router.scatterRelayed.Value()-relayed
				if legCharge != fetched || relayed != nodeCharge {
					t.Fatalf("%s: legs charged %d and fetched %d rows; relayed %d, the node charged %d", sql, legCharge, fetched, relayed, nodeCharge)
				}
				if fetched == relayed {
					windowed++
					continue
				}
				// Only a short window pays more than the node: its
				// continuation round asks each of the four legs for the
				// n−got rows left, of which one leg's worth is relayed.
				continued++
				if fetched-relayed > 3*int64(n) {
					t.Fatalf("%s: fetched %d rows to relay %d", sql, fetched, relayed)
				}
			}
			t.Logf("%d statements fetched what they relayed, %d fetched more in their continuation round, %d found a partition unavailable",
				windowed, continued, unavailable)
			if windowed == 0 {
				t.Fatal("no statement was answered by its window alone")
			}
		})
	}
}
