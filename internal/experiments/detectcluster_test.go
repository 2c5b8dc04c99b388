package experiments

import (
	"testing"
)

// testShardedSybilParams mirrors testSybilDetectionParams at 1/20 scale
// over a 4-shard cluster.
func testShardedSybilParams() ShardedSybilParams {
	p := DefaultShardedSybilParams()
	p.Scale = 20
	p.Ks = []int{1, 4, 16}
	p.Grace = 0.15
	p.LegitUsers = 8
	p.LegitQueries = 40
	return p
}

func TestShardedSybilExchangeRestoresSurcharge(t *testing.T) {
	p := testShardedSybilParams()
	res, err := ShardedSybilDetection(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != len(p.Ks) {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	last := len(p.Ks) - 1

	// Exchange off, the shard rotation is a working evasion: each shard
	// sees under-grace coverage of the largest coalition's identities, no
	// surcharge lands, and the k-way advantage survives (wall well below
	// the sequential baseline).
	if res.OffUnionCoverage[last] >= p.Grace {
		t.Errorf("off-mode shard coverage %.3f >= grace %.2f — rotation failed to dilute",
			res.OffUnionCoverage[last], p.Grace)
	}
	if res.OffWall[last] >= res.BaselineWall {
		t.Errorf("off-mode k=%d wall %v >= baseline %v — evasion should have kept the advantage",
			p.Ks[last], res.OffWall[last], res.BaselineWall)
	}

	// Exchange on, the merged sketches restore the global view: the
	// coalition pays >= 20x the single-identity baseline (the acceptance
	// bar; measured ~38x, on par with the single-node detector).
	if res.OnWall[last] < 20*res.BaselineWall {
		t.Errorf("on-mode k=%d wall %v < 20x baseline %v — exchange did not restore the surcharge",
			p.Ks[last], res.OnWall[last], res.BaselineWall)
	}
	if res.OnUnionCoverage[last] < 0.9 {
		t.Errorf("on-mode merged coverage %.3f, want >= 0.9 after exchange + coalition attribution",
			res.OnUnionCoverage[last])
	}

	// The sharded on-cost stays within 2x of the single-node detector on
	// the same workload — distributing the detector costs the defense at
	// most a factor of two, not its teeth.
	sp := testSybilDetectionParams()
	single, err := SybilDetection(sp)
	if err != nil {
		t.Fatal(err)
	}
	singleWall := single.DetectWall[len(sp.Ks)-1]
	if res.OnWall[last] < singleWall/2 {
		t.Errorf("sharded on-cost %v < half the single-node cost %v",
			res.OnWall[last], singleWall)
	}
	if res.OnWall[last] > 2*singleWall {
		t.Errorf("sharded on-cost %v > 2x the single-node cost %v",
			res.OnWall[last], singleWall)
	}

	// Legitimate readers pinned to their hash shard see no collateral:
	// median delay within 5% of detection-off.
	if res.LegitMedianOn > res.LegitMedianOff+res.LegitMedianOff/20 {
		t.Errorf("legit median %v with sharded detection vs %v off — more than 5%% collateral",
			res.LegitMedianOn, res.LegitMedianOff)
	}
}

// testPartitionedSybilParams is testShardedSybilParams over the router's
// default partition map.
func testPartitionedSybilParams() PartitionedSybilParams {
	p := DefaultPartitionedSybilParams()
	p.ShardedSybilParams = testShardedSybilParams()
	return p
}

func TestPartitionedSybilExchangeRestoresSurcharge(t *testing.T) {
	p := testPartitionedSybilParams()
	res, err := PartitionedSybilDetection(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != len(p.Ks) {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	last := len(p.Ks) - 1

	// Exchange off, splitting the key range dilutes every owner shard's
	// view of every identity under the grace (measured 5.5% at k=16).
	if res.OffUnionCoverage[last] >= p.Grace {
		t.Errorf("off-mode shard coverage %.3f >= grace %.2f — key splitting failed to dilute",
			res.OffUnionCoverage[last], p.Grace)
	}
	// Exchange on, the coalition pays >= 20x the single-identity baseline
	// (measured 44.9 h against 1.55 h, 29x) and a shard sees all of it.
	if res.OnWall[last] < 20*res.BaselineWall {
		t.Errorf("on-mode k=%d wall %v < 20x baseline %v — exchange did not restore the surcharge",
			p.Ks[last], res.OnWall[last], res.BaselineWall)
	}
	if res.OnUnionCoverage[last] < 0.9 {
		t.Errorf("on-mode merged coverage %.3f, want >= 0.9", res.OnUnionCoverage[last])
	}
	// Legitimate point readers at their owner shards: no collateral.
	if res.LegitMedianOn > res.LegitMedianOff+res.LegitMedianOff/20 {
		t.Errorf("legit median %v with partitioned detection vs %v off — more than 5%% collateral",
			res.LegitMedianOn, res.LegitMedianOff)
	}
}

func TestPartitionedShardKillKeepsSurcharge(t *testing.T) {
	p := testPartitionedSybilParams()
	res, err := PartitionedShardKillSybil(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != len(p.Ks) {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	last := len(p.Ks) - 1
	up, down := res.OffWall[last], res.OnWall[last]
	// A dead shard loses no extraction pricing: its partitions fail over
	// to surviving replicas whose detectors observe the queries (measured
	// 54.6 h down against 44.9 h up at k=16).
	if down < 20*res.BaselineWall {
		t.Errorf("shard-down k=%d wall %v < 20x baseline %v", p.Ks[last], down, res.BaselineWall)
	}
	if down < up {
		t.Errorf("shard-down k=%d wall %v < all-up wall %v", p.Ks[last], down, up)
	}
	if res.OnUnionCoverage[last] < 0.9 {
		t.Errorf("shard-down merged coverage %.3f, want >= 0.9", res.OnUnionCoverage[last])
	}
}

// Every cluster entry point rejects a one-shard cluster and a zero
// exchange interval (which the coalition driver would read as "off").
func TestShardedSybilParamValidation(t *testing.T) {
	runs := map[string]func(ShardedSybilParams) error{
		"sharded": func(p ShardedSybilParams) error {
			_, err := ShardedSybilDetection(p)
			return err
		},
		"partitioned": func(p ShardedSybilParams) error {
			_, err := PartitionedSybilDetection(PartitionedSybilParams{ShardedSybilParams: p})
			return err
		},
		"shard-kill": func(p ShardedSybilParams) error {
			_, err := PartitionedShardKillSybil(PartitionedSybilParams{ShardedSybilParams: p})
			return err
		},
	}
	for name, run := range runs {
		p := testShardedSybilParams()
		p.Shards = 1
		if run(p) == nil {
			t.Errorf("%s: Shards=1 accepted", name)
		}
		p = testShardedSybilParams()
		p.ExchangeEvery = 0
		if run(p) == nil {
			t.Errorf("%s: ExchangeEvery=0 accepted", name)
		}
	}
}
