package torture

import (
	"fmt"
	"testing"
)

// TestClusterTorture drives the scripted shard-kill sequence: RPC
// faults, a mid-workload kill with replica failover, a rebalance raced
// against a kill, a clean rebalance, and the sketch-reconvergence
// finale — asserting no acked write is ever lost across any of it. Each
// layout runs under seeds 1-4 (the workload draws and the fault rules),
// one subtest per seed, so a failure names the seed that replays it.
func TestClusterTorture(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
	}{
		{"partitioned-r2", ClusterConfig{Shards: 4, Replication: 2}},
		// Full replication is the R = N map. No partition has a
		// non-member gainer, so both rebalances copy nothing: they
		// rotate every third group's order — each moves the primary,
		// and so the reads, onto a replica that must already hold every
		// acked write — and install the map under the same fences.
		{"full-replication", ClusterConfig{Shards: 3, Replication: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					cfg := tc.cfg
					cfg.Seed = seed
					cfg.Logf = t.Logf
					if testing.Short() {
						cfg.SeedTuples = 48
						cfg.Ops = 16
					}
					res, err := RunCluster(t.TempDir(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range res.Violations {
						t.Error(v)
					}
					if res.Acked == 0 {
						t.Error("no write was ever acked; the harness exercised nothing")
					}
					if res.SplitsAcked == 0 {
						t.Errorf("none of %d split INSERTs was acked; the multi-partition write path went unexercised", res.Splits)
					}
					if res.Kills != 2 || res.Rebalances != 2 {
						t.Errorf("kills=%d rebalances=%d, want 2 and 2", res.Kills, res.Rebalances)
					}
					t.Logf("cluster torture: %d ops (%d reads, %d writes, %d acked, %d of %d split INSERTs acked), %d unavailable, %d violations",
						res.Ops, res.Reads, res.Writes, res.Acked, res.SplitsAcked, res.Splits, res.Unavailable, len(res.Violations))
				})
			}
		})
	}
}
