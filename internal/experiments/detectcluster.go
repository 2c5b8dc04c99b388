package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
)

// ShardedSybilParams configures the clustered rerun of the Sybil
// detection experiment: the same coordinated k-identity extraction, but
// against Shards detector instances, one per cluster node, with the
// adversary deliberately rotating every identity's queries across
// shards so no single detector sees enough local coverage to escalate.
// Anti-entropy — the periodic per-principal sketch exchange the cluster
// router runs — is the countermeasure under test.
type ShardedSybilParams struct {
	SybilDetectionParams
	// Shards is the number of detector instances (cluster nodes).
	Shards int
	// ExchangeEvery is how many lockstep batch rounds pass between
	// anti-entropy exchanges in the on mode.
	ExchangeEvery int
	// ExportFloor is the minimum local coverage a principal needs for
	// its sketches to be gossiped (the router's -antientropy-floor).
	ExportFloor float64
}

// DefaultShardedSybilParams returns the paper-scale configuration: the
// single-node defaults spread over a 4-shard cluster exchanging every
// round.
func DefaultShardedSybilParams() ShardedSybilParams {
	return ShardedSybilParams{
		SybilDetectionParams: DefaultSybilDetectionParams(),
		Shards:               4,
		ExchangeEvery:        1,
		ExportFloor:          0.01,
	}
}

// validate rejects what every cluster experiment rejects. It runs before
// ExchangeEvery reaches the coalition driver, which reads 0 as "off".
func (p ShardedSybilParams) validate() error {
	if p.Shards < 2 {
		return errors.New("experiments: a Sybil cluster needs at least 2 shards")
	}
	if p.ExchangeEvery < 1 {
		return errors.New("experiments: ExchangeEvery must be >= 1")
	}
	return nil
}

// ShardedSybilResult carries the measured quantities for assertions.
type ShardedSybilResult struct {
	Table *Table
	// BaselineWall is the single-identity, detection-off extraction time.
	BaselineWall time.Duration
	// OffWall and OnWall are the coalition wall times with anti-entropy
	// off and on, indexed like Params.Ks.
	OffWall []time.Duration
	OnWall  []time.Duration
	// OffUnionCoverage and OnUnionCoverage are one shard's best estimate
	// of the coalition's catalog share after each run — without exchange
	// a shard only ever sees its 1/Shards slice.
	OffUnionCoverage []float64
	OnUnionCoverage  []float64
	// LegitMedianOff/On are legitimate per-query median delays without
	// and with detection+exchange in the loop.
	LegitMedianOff time.Duration
	LegitMedianOn  time.Duration
}

// ShardedSybilDetection reruns the Sybil detection analysis across a
// sharded cluster. Each of k coordinated identities walks its share of
// the catalog plus the shared verification sample, and every query
// rotates to a different shard — the evasion the paper's single-node
// detector cannot see, because each shard observes only ~1/Shards of
// any identity's stream and stays under the escalation grace. With
// anti-entropy on, shards exchange per-principal HLL/MinHash deltas
// every ExchangeEvery rounds; the merged sketches restore each shard's
// view of every identity's *global* coverage, and the surcharge returns
// to within the single-node detector's reach.
func ShardedSybilDetection(p ShardedSybilParams) (*ShardedSybilResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	b, err := newSybilBed(p.SybilDetectionParams)
	if err != nil {
		return nil, err
	}
	res, err := b.exchangeTable(p,
		fmt.Sprintf("Sharded Sybil extraction over %d shards: anti-entropy sketch exchange restores the surcharge", p.Shards),
		// The evasive rotation: identity i's round-r batch lands on
		// shard (i+r) mod Shards, so every shard sees a thin slice of
		// every identity.
		func(i, r int, _ uint64) int { return (i + r) % p.Shards },
		// Legitimate readers are pinned to their hash shard (the
		// router's affinity policy).
		func(dets []*detect.Detector, u int, _ uint64) *detect.Detector { return dets[u%p.Shards] })
	if err != nil {
		return nil, err
	}
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; identities rotate shards per batch, exchange every %d round(s), export floor %.0f%%",
			Hours(b.baseline), len(b.ids), p.ExchangeEvery, 100*p.ExportFloor),
		fmt.Sprintf("legitimate median delay: %s off vs %s with sharded detection (%d Zipf(%.1f) users × %d queries, hash-affinity shards)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn),
			p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

// PartitionedSybilParams configures the Sybil rerun against a
// partitioned cluster: tuples hash to owner shards via the router's
// partition map, so an extraction coalition does not choose which shard
// sees a query — the tuple's owner does. The natural evasion flips from
// rotation to key-range splitting: each identity walks its slice of the
// catalog through point queries, and each shard's detector observes
// only the ~1/Shards of those tuples it owns.
type PartitionedSybilParams struct {
	ShardedSybilParams
	// Partitions is the partition-map size (cluster.DefaultPartitions
	// when 0).
	Partitions int
}

// DefaultPartitionedSybilParams returns the paper-scale configuration:
// the sharded defaults with the router's default partition map.
func DefaultPartitionedSybilParams() PartitionedSybilParams {
	return PartitionedSybilParams{
		ShardedSybilParams: DefaultShardedSybilParams(),
		Partitions:         cluster.DefaultPartitions,
	}
}

// setup validates p, defaults its partition count, and builds the
// partition map at the given replication plus the learned defense.
func (p *PartitionedSybilParams) setup(replicas int) (*cluster.PartitionMap, *sybilBed, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	if p.Partitions == 0 {
		p.Partitions = cluster.DefaultPartitions
	}
	pm, err := cluster.NewPartitionMap(1, p.Partitions, p.Shards, replicas)
	if err != nil {
		return nil, nil, err
	}
	b, err := newSybilBed(p.SybilDetectionParams)
	return pm, b, err
}

// PartitionedSybilDetection reruns the Sybil detection analysis against
// a partitioned cluster. Ownership, not the adversary, picks the shard
// a query lands on, and a query touching tuples on several shards costs
// the client the SUM of the per-shard delays — the shards serve one
// sequential client, there is no parallel wall-time discount for
// scattering. What partitioning does hand the coalition is coverage
// dilution: every shard's detector sees only its slice of every
// identity's stream (~1/(k·Shards) of the catalog), far under the
// escalation grace. Anti-entropy is again the countermeasure: merged
// sketches restore each shard's view of global per-identity coverage
// and of the shared verification sample that clusters the coalition.
func PartitionedSybilDetection(p PartitionedSybilParams) (*ShardedSybilResult, error) {
	pm, b, err := p.setup(1)
	if err != nil {
		return nil, err
	}
	res, err := b.exchangeTable(p.ShardedSybilParams,
		fmt.Sprintf("Partitioned Sybil extraction: %d shards × %d partitions, coalition splits the key range", p.Shards, p.Partitions),
		owners(pm, -1),
		// Legitimate point queries go to the queried tuple's owner — the
		// partitioned router's only read path for key lookups.
		func(dets []*detect.Detector, _ int, id uint64) *detect.Detector { return dets[pm.OwnerOf(int64(id))] })
	if err != nil {
		return nil, err
	}
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; tuples hash to owners, exchange every %d round(s), export floor %.0f%%",
			Hours(b.baseline), len(b.ids), p.ExchangeEvery, 100*p.ExportFloor),
		fmt.Sprintf("legitimate median delay: %s off vs %s with partitioned detection (%d Zipf(%.1f) users × %d point queries to owner shards)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn),
			p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

// PartitionedShardKillSybil reruns the key-splitting coalition against
// the replicated layout (R = 2) with shard 0 dead for the entire attack.
// Failover routes each query to the surviving replica of its partition,
// whose detector observes it, and the anti-entropy exchange runs among
// the survivors only — so the coalition's union coverage still
// reassembles and the surcharge must hold without the dead shard's
// evidence. This is the detection half of the shard-kill contract:
// losing a replica loses no acked writes (torture.RunCluster) and loses
// no extraction pricing (this table). OffWall holds the all-up walls,
// OnWall and OnUnionCoverage the shard-down ones.
func PartitionedShardKillSybil(p PartitionedSybilParams) (*ShardedSybilResult, error) {
	pm, b, err := p.setup(2)
	if err != nil {
		return nil, err
	}
	res := &ShardedSybilResult{BaselineWall: b.baseline}
	t := &Table{
		Title: fmt.Sprintf(
			"Shard-kill Sybil extraction: %d shards × %d partitions × R=2, shard-0 dead for the whole attack",
			p.Shards, p.Partitions),
		Header: []string{
			"Identities", "All shards up (h)", "Shard down (h)",
			"Up/baseline", "Down/baseline", "Cov (down)",
		},
	}
	for _, k := range p.Ks {
		upWall, _, err := b.coalition(k, p.Shards, owners(pm, -1), p.ExchangeEvery, p.ExportFloor, -1)
		if err != nil {
			return nil, err
		}
		downWall, dets, err := b.coalition(k, p.Shards, owners(pm, 0), p.ExchangeEvery, p.ExportFloor, 0)
		if err != nil {
			return nil, err
		}
		_, downCov := coverage(dets[1], k) // shard 1 is a live viewer
		res.OffWall = append(res.OffWall, upWall)
		res.OnWall = append(res.OnWall, downWall)
		res.OnUnionCoverage = append(res.OnUnionCoverage, downCov)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(upWall), Hours(downWall),
			fmt.Sprintf("%.1fx", upWall.Seconds()/b.baseline.Seconds()),
			fmt.Sprintf("%.1fx", downWall.Seconds()/b.baseline.Seconds()),
			fmt.Sprintf("%.1f%%", 100*downCov),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; failover serves each dead-shard partition from its surviving replica, whose detector observes the query",
			Hours(b.baseline), len(b.ids)))
	res.Table = t
	return res, nil
}

// owners places each tuple on its partition's owner, failing over to the
// first live member of the partition's replica group when the owner is
// the dead shard (-1 for none).
func owners(pm *cluster.PartitionMap, dead int) placement {
	return func(_, _ int, id uint64) int {
		s := pm.OwnerOf(int64(id))
		if s != dead {
			return s
		}
		for _, m := range pm.GroupOf(pm.PartitionOf(int64(id))) {
			if m != dead {
				return m
			}
		}
		return s
	}
}

// exchangeTable runs the coalition of every k in p.Ks with anti-entropy
// off and on and tabulates both against the baseline; shard 0 reports
// coverage. Legitimate readers are then priced through the detectors of
// the last on run, each query observed by pick(dets, user, id).
func (b *sybilBed) exchangeTable(p ShardedSybilParams, title string, place placement, pick func(dets []*detect.Detector, user int, id uint64) *detect.Detector) (*ShardedSybilResult, error) {
	res := &ShardedSybilResult{BaselineWall: b.baseline, Table: &Table{
		Title: title,
		Header: []string{
			"Identities", "Exchange off (h)", "Exchange on (h)",
			"On/baseline", "Shard cov off", "Shard cov on",
		},
	}}
	var last []*detect.Detector
	for _, k := range p.Ks {
		offWall, off, err := b.coalition(k, p.Shards, place, 0, 0, -1)
		if err != nil {
			return nil, err
		}
		onWall, on, err := b.coalition(k, p.Shards, place, p.ExchangeEvery, p.ExportFloor, -1)
		if err != nil {
			return nil, err
		}
		_, offCov := coverage(off[0], k)
		_, onCov := coverage(on[0], k)
		res.OffWall = append(res.OffWall, offWall)
		res.OnWall = append(res.OnWall, onWall)
		res.OffUnionCoverage = append(res.OffUnionCoverage, offCov)
		res.OnUnionCoverage = append(res.OnUnionCoverage, onCov)
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(offWall), Hours(onWall),
			fmt.Sprintf("%.1fx", onWall.Seconds()/b.baseline.Seconds()),
			fmt.Sprintf("%.1f%%", 100*offCov), fmt.Sprintf("%.1f%%", 100*onCov),
		})
		last = on
	}
	var err error
	res.LegitMedianOff, res.LegitMedianOn, err = b.legit(func(u int, id uint64) *detect.Detector { return pick(last, u, id) })
	return res, err
}

// exchangeSketches is one hub-spoke anti-entropy round in miniature:
// pull each shard's delta past its watermark, push it to every other
// shard. Sketches are CRDTs, so the merge order is irrelevant and
// re-delivery is harmless. A dead shard (index dead, -1 for none)
// neither exports nor absorbs, exactly as the router's exchange skips
// latched peers.
func exchangeSketches(dets []*detect.Detector, marks []uint64, floor float64, dead int) {
	pages := make([][]detect.SketchSnapshot, len(dets))
	for s, d := range dets {
		if s != dead {
			pages[s], marks[s] = d.ExportSince(marks[s], floor)
		}
	}
	for t, d := range dets {
		if t == dead {
			continue
		}
		for s, snaps := range pages {
			if s == t || len(snaps) == 0 {
				continue
			}
			d.Absorb(snaps)
		}
	}
}
