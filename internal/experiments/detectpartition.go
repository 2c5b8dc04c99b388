package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/delay"
	"repro/internal/detect"
	"repro/internal/trace"
	"repro/internal/zipf"
)

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
	if p.Shards < 2 {
		return nil, errors.New("experiments: partitioned Sybil needs at least 2 shards")
	}
	if p.ExchangeEvery < 1 {
		return nil, errors.New("experiments: ExchangeEvery must be >= 1")
	}
	if p.Partitions == 0 {
		p.Partitions = cluster.DefaultPartitions
	}
	pm, err := cluster.NewPartitionMap(1, p.Partitions, p.Shards, 0, 1)
	if err != nil {
		return nil, err
	}
	cal := CalgaryParams{Scale: p.Scale, Cap: p.Cap, CapFraction: p.CapFraction, Seed: p.Seed}
	tr, err := calgaryTrace("sybil-detect-partition", cal)
	if err != nil {
		return nil, err
	}
	tracker, err := learnTracker(tr, 1)
	if err != nil {
		return nil, err
	}
	n := cal.objects()
	beta, err := delay.TuneBeta(n, trace.CalgaryAlpha, tracker.MaxCount(), p.Cap, p.CapFraction)
	if err != nil {
		return nil, err
	}
	pol, err := delay.NewPopularity(delay.PopularityConfig{
		N: n, Alpha: trace.CalgaryAlpha, Beta: beta, Cap: p.Cap,
	}, tracker)
	if err != nil {
		return nil, err
	}
	gate, err := delay.NewGate(pol, noSleepClock{}, nil)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	dcfg := detect.Config{
		CatalogSize: n,
		Policy: detect.EscalationPolicy{
			Grace: p.Grace, Cap: p.MultCap, RampWidth: p.RampWidth, Hysteresis: 0.10,
		},
		JaccardThreshold: p.Jaccard,
	}

	baseline, err := adversary.Sequential(gate, ids)
	if err != nil {
		return nil, err
	}
	res := &ShardedSybilResult{BaselineWall: baseline.WallTime}
	t := &Table{
		Title: fmt.Sprintf(
			"Partitioned Sybil extraction: %d shards × %d partitions, coalition splits the key range",
			p.Shards, p.Partitions),
		Header: []string{
			"Identities", "Exchange off (h)", "Exchange on (h)",
			"On/baseline", "Shard cov off", "Shard cov on",
		},
	}

	var lastOn []*detect.Detector
	for _, k := range p.Ks {
		offWall, offCov, _, err := p.runPartitionedCoalition(gate, dcfg, pm, ids, k, false, -1)
		if err != nil {
			return nil, err
		}
		onWall, onCov, dets, err := p.runPartitionedCoalition(gate, dcfg, pm, ids, k, true, -1)
		if err != nil {
			return nil, err
		}
		res.OffWall = append(res.OffWall, offWall)
		res.OnWall = append(res.OnWall, onWall)
		res.OffUnionCoverage = append(res.OffUnionCoverage, offCov)
		res.OnUnionCoverage = append(res.OnUnionCoverage, onCov)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(offWall), Hours(onWall),
			fmt.Sprintf("%.1fx", onWall.Seconds()/baseline.WallTime.Seconds()),
			fmt.Sprintf("%.1f%%", 100*offCov), fmt.Sprintf("%.1f%%", 100*onCov),
		})
		lastOn = dets
	}

	// Collateral damage: Zipf readers issuing point queries, each routed
	// to the queried tuple's owner shard — the partitioned router's only
	// read path for key lookups.
	dist, err := zipf.New(n, p.LegitAlpha)
	if err != nil {
		return nil, err
	}
	sampler := zipf.NewSampler(dist, p.Seed+1)
	var offs, ons []float64
	for u := 0; u < p.LegitUsers; u++ {
		name := fmt.Sprintf("user-%d", u)
		for q := 0; q < p.LegitQueries; q++ {
			id := uint64(sampler.Next() - 1)
			shard := lastOn[pm.OwnerOf(int64(id))]
			off := gate.Quote(id)
			mult := shard.ObserveBatch(name, []uint64{id})
			offs = append(offs, off.Seconds())
			ons = append(ons, gate.QuoteScaled(mult, id).Seconds())
		}
	}
	res.LegitMedianOff = delay.SecondsToDuration(medianSeconds(offs))
	res.LegitMedianOn = delay.SecondsToDuration(medianSeconds(ons))
	res.Table = t
	t.Notes = append(t.Notes,
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; tuples hash to owners, exchange every %d round(s), export floor %.0f%%",
			Hours(baseline.WallTime), n, p.ExchangeEvery, 100*p.ExportFloor),
		fmt.Sprintf("legitimate median delay: %s off vs %s with partitioned detection (%d Zipf(%.1f) users × %d point queries to owner shards)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn),
			p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

// PartitionedShardKillSybil reruns the k = max(Ks) key-splitting
// coalition against the replicated layout (R = 2) with one of the
// shards dead for the entire attack. Failover routes each query to the
// surviving replica of its partition, whose detector observes it, and
// the anti-entropy exchange runs among the survivors only — so the
// coalition's union coverage still reassembles and the surcharge must
// hold without the dead shard's evidence. This is the detection half of
// the shard-kill contract: losing a replica loses no acked writes
// (torture.RunCluster) and loses no extraction pricing (this table).
func PartitionedShardKillSybil(p PartitionedSybilParams) (*ShardedSybilResult, error) {
	if p.Shards < 2 {
		return nil, errors.New("experiments: shard-kill Sybil needs at least 2 shards")
	}
	if p.Partitions == 0 {
		p.Partitions = cluster.DefaultPartitions
	}
	pm, err := cluster.NewPartitionMap(1, p.Partitions, p.Shards, 0, 2)
	if err != nil {
		return nil, err
	}
	cal := CalgaryParams{Scale: p.Scale, Cap: p.Cap, CapFraction: p.CapFraction, Seed: p.Seed}
	tr, err := calgaryTrace("sybil-detect-shardkill", cal)
	if err != nil {
		return nil, err
	}
	tracker, err := learnTracker(tr, 1)
	if err != nil {
		return nil, err
	}
	n := cal.objects()
	beta, err := delay.TuneBeta(n, trace.CalgaryAlpha, tracker.MaxCount(), p.Cap, p.CapFraction)
	if err != nil {
		return nil, err
	}
	pol, err := delay.NewPopularity(delay.PopularityConfig{
		N: n, Alpha: trace.CalgaryAlpha, Beta: beta, Cap: p.Cap,
	}, tracker)
	if err != nil {
		return nil, err
	}
	gate, err := delay.NewGate(pol, noSleepClock{}, nil)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	dcfg := detect.Config{
		CatalogSize: n,
		Policy: detect.EscalationPolicy{
			Grace: p.Grace, Cap: p.MultCap, RampWidth: p.RampWidth, Hysteresis: 0.10,
		},
		JaccardThreshold: p.Jaccard,
	}
	baseline, err := adversary.Sequential(gate, ids)
	if err != nil {
		return nil, err
	}
	res := &ShardedSybilResult{BaselineWall: baseline.WallTime}
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
		upWall, _, _, err := p.runPartitionedCoalition(gate, dcfg, pm, ids, k, true, -1)
		if err != nil {
			return nil, err
		}
		downWall, downCov, _, err := p.runPartitionedCoalition(gate, dcfg, pm, ids, k, true, 0)
		if err != nil {
			return nil, err
		}
		res.OffWall = append(res.OffWall, upWall)
		res.OnWall = append(res.OnWall, downWall)
		res.OnUnionCoverage = append(res.OnUnionCoverage, downCov)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(upWall), Hours(downWall),
			fmt.Sprintf("%.1fx", upWall.Seconds()/baseline.WallTime.Seconds()),
			fmt.Sprintf("%.1fx", downWall.Seconds()/baseline.WallTime.Seconds()),
			fmt.Sprintf("%.1f%%", 100*downCov),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; failover serves each dead-shard partition from its surviving replica, whose detector observes the query",
			Hours(baseline.WallTime), n))
	res.Table = t
	return res, nil
}

// runPartitionedCoalition drives one k-identity extraction where each
// identity's batch is split by tuple ownership: the sub-batch owned by
// shard s is observed by shard s's detector, and the identity — a
// sequential client of the front door — pays the sum of the per-shard
// quotes. Detectors gossip every ExchangeEvery rounds when exchange is
// on. dead (when >= 0) marks one shard down for the whole run: queries
// fail over to the next live member of the tuple's replica group, and
// the dead shard neither observes nor exchanges. Returns the coalition
// wall time, a live shard's best coalition-coverage estimate after a
// final exchange+recluster, and the detectors.
func (p PartitionedSybilParams) runPartitionedCoalition(gate *delay.Gate, dcfg detect.Config, pm *cluster.PartitionMap, ids []uint64, k int, exchange bool, dead int) (time.Duration, float64, []*detect.Detector, error) {
	dets := make([]*detect.Detector, p.Shards)
	for s := range dets {
		d, err := detect.NewDetector(dcfg)
		if err != nil {
			return 0, 0, nil, err
		}
		dets[s] = d
	}
	streams, err := adversary.CoordinatedStreams(ids, k, p.VerifyFraction, p.Seed)
	if err != nil {
		return 0, 0, nil, err
	}
	marks := make([]uint64, p.Shards)
	walls := make([]time.Duration, k)
	sub := make([][]uint64, p.Shards)
	round := 0
	for pos := 0; ; pos += sybilBatch {
		done := true
		for i, stream := range streams {
			if pos >= len(stream) {
				continue
			}
			done = false
			batch := stream[pos:min(pos+sybilBatch, len(stream))]
			for s := range sub {
				sub[s] = sub[s][:0]
			}
			for _, id := range batch {
				s := pm.OwnerOf(int64(id))
				if s == dead {
					for _, m := range pm.GroupOf(pm.PartitionOf(int64(id))) {
						if m != dead {
							s = m
							break
						}
					}
				}
				sub[s] = append(sub[s], id)
			}
			name := fmt.Sprintf("sybil-%d", i)
			for s, part := range sub {
				if len(part) == 0 {
					continue
				}
				mult := dets[s].ObserveBatch(name, part)
				walls[i] += gate.QuoteScaled(mult, part...)
			}
		}
		if done {
			break
		}
		round++
		if exchange && round%p.ExchangeEvery == 0 {
			exchangeSketches(dets, marks, p.ExportFloor, dead)
		}
	}
	if exchange {
		exchangeSketches(dets, marks, p.ExportFloor, dead)
	}
	var wall time.Duration
	for _, w := range walls {
		if w > wall {
			wall = w
		}
	}
	for _, d := range dets {
		d.Recluster()
	}
	viewer := 0
	if viewer == dead {
		viewer = 1
	}
	var union float64
	for _, s := range dets[viewer].Suspects(k) {
		u := s.Coverage
		if s.CoalitionCoverage > u {
			u = s.CoalitionCoverage
		}
		if u > union {
			union = u
		}
	}
	return wall, union, dets, nil
}
