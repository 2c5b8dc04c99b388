package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/delay"
	"repro/internal/detect"
	"repro/internal/trace"
	"repro/internal/zipf"
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
	if p.Shards < 2 {
		return nil, errors.New("experiments: sharded Sybil needs at least 2 shards")
	}
	if p.ExchangeEvery < 1 {
		return nil, errors.New("experiments: ExchangeEvery must be >= 1")
	}
	cal := CalgaryParams{Scale: p.Scale, Cap: p.Cap, CapFraction: p.CapFraction, Seed: p.Seed}
	tr, err := calgaryTrace("sybil-detect-cluster", cal)
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
			"Sharded Sybil extraction over %d shards: anti-entropy sketch exchange restores the surcharge",
			p.Shards),
		Header: []string{
			"Identities", "Exchange off (h)", "Exchange on (h)",
			"On/baseline", "Shard cov off", "Shard cov on",
		},
	}

	var lastOn []*detect.Detector
	for _, k := range p.Ks {
		offWall, offCov, _, err := p.runCoalition(gate, dcfg, ids, k, false)
		if err != nil {
			return nil, err
		}
		onWall, onCov, dets, err := p.runCoalition(gate, dcfg, ids, k, true)
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

	// Collateral damage: Zipf readers pinned to their hash shard (the
	// router's affinity policy), through the detectors that just watched
	// the largest exchanged coalition.
	dist, err := zipf.New(n, p.LegitAlpha)
	if err != nil {
		return nil, err
	}
	sampler := zipf.NewSampler(dist, p.Seed+1)
	var offs, ons []float64
	for u := 0; u < p.LegitUsers; u++ {
		name := fmt.Sprintf("user-%d", u)
		shard := lastOn[u%p.Shards]
		for q := 0; q < p.LegitQueries; q++ {
			id := uint64(sampler.Next() - 1)
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
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; identities rotate shards per batch, exchange every %d round(s), export floor %.0f%%",
			Hours(baseline.WallTime), n, p.ExchangeEvery, 100*p.ExportFloor),
		fmt.Sprintf("legitimate median delay: %s off vs %s with sharded detection (%d Zipf(%.1f) users × %d queries, hash-affinity shards)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn),
			p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

// runCoalition drives one k-identity coordinated extraction against
// Shards detectors, rotating each identity across shards per batch
// round. With exchange on, detectors gossip sketch deltas every
// ExchangeEvery rounds, exactly as the cluster router's anti-entropy
// loop does (ExportSince watermarks, Absorb merges). Returns the
// coalition wall time, shard 0's best coalition-coverage estimate after
// a final exchange+recluster, and the detectors for reuse.
func (p ShardedSybilParams) runCoalition(gate *delay.Gate, dcfg detect.Config, ids []uint64, k int, exchange bool) (time.Duration, float64, []*detect.Detector, error) {
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
	round := 0
	for pos := 0; ; pos += sybilBatch {
		done := true
		for i, stream := range streams {
			if pos >= len(stream) {
				continue
			}
			done = false
			batch := stream[pos:min(pos+sybilBatch, len(stream))]
			// The evasive rotation: identity i's round-r batch lands on
			// shard (i+r) mod Shards, so every shard sees a thin slice
			// of every identity.
			shard := (i + round) % p.Shards
			mult := dets[shard].ObserveBatch(fmt.Sprintf("sybil-%d", i), batch)
			walls[i] += gate.QuoteScaled(mult, batch...)
		}
		if done {
			break
		}
		round++
		if exchange && round%p.ExchangeEvery == 0 {
			exchangeSketches(dets, marks, p.ExportFloor, -1)
		}
	}
	if exchange {
		exchangeSketches(dets, marks, p.ExportFloor, -1)
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
	var union float64
	for _, s := range dets[0].Suspects(k) {
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
