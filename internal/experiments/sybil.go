package experiments

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/adversary"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ratelimit"
	"repro/internal/trace"
)

// SybilParams configures the §2.4 parallel-attack analysis. The paper
// argues in prose that a registration throttle of one identity per t
// renders parallelism moot when t is comparable to the single-identity
// extraction delay; this experiment quantifies the claim on the learned
// Calgary-shaped defense.
type SybilParams struct {
	CalgaryParams
	// Ks are the identity counts evaluated.
	Ks []int
}

// DefaultSybilParams returns the paper-scale configuration.
func DefaultSybilParams() SybilParams {
	return SybilParams{CalgaryParams: DefaultCalgaryParams(), Ks: []int{1, 4, 16, 64, 256}}
}

// SybilAnalysis prices parallel extraction through the product at
// several identity counts: k identities split the catalog round-robin
// and read it, one point SELECT per tuple, from a fresh node holding the
// learned Calgary-shaped defense. Each count is priced under three
// registration regimes: no throttle, a modest throttle, and the §2.4
// neutralizing throttle t = dtotal/4.
func SybilAnalysis(p SybilParams) (*Table, error) {
	d, seq, err := p.defense()
	if err != nil {
		return nil, err
	}
	neutral := ratelimit.RegistrationIntervalToNeutralize(seq)
	modest := time.Hour

	t := &Table{
		Title: "§2.4 analysis: parallel (Sybil) extraction wall time vs identity count",
		Header: []string{
			"Identities", "No throttle (h)",
			fmt.Sprintf("1 id/%v (h)", modest),
			fmt.Sprintf("1 id/%s h — neutralizing (h)", Hours(neutral)),
		},
	}
	for _, k := range p.Ks {
		wall, err := d.Extract(k, 0)
		if err != nil {
			return nil, err
		}
		throttled := func(interval time.Duration) string { return Hours(wall + time.Duration(k)*interval) }
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(wall), throttled(modest), throttled(neutral),
		})
	}
	kStar, best := ratelimit.OptimalParallelism(seq, neutral)
	t.Notes = append(t.Notes,
		fmt.Sprintf("single-identity extraction: %s hours over %d tuples", Hours(seq), d.n),
		fmt.Sprintf("under the neutralizing throttle the optimal attack (k*=%d) still takes %s hours ≥ the sequential cost — parallelism is moot", kStar, Hours(best)))
	return t, nil
}

// StorefrontParams configures the storefront-relay coverage experiment.
type StorefrontParams struct {
	// N is the catalogue size.
	N int
	// Alphas are the customer-workload skews evaluated.
	Alphas []float64
	// Queries is the customer traffic volume relayed.
	Queries int
	Seed    int64
}

// DefaultStorefrontParams returns the default configuration.
func DefaultStorefrontParams() StorefrontParams {
	return StorefrontParams{
		N:       trace.CalgaryObjects,
		Alphas:  []float64{0.0, 1.0, 1.5, 2.0},
		Queries: 725_091,
		Seed:    9,
	}
}

// StorefrontCoverage measures what fraction of the catalogue a
// storefront accumulates by relaying legitimate customer traffic, per
// workload skew. The §2.4 storefront attack only sees what customers ask
// for; under realistic skew the long tail never arrives.
func StorefrontCoverage(p StorefrontParams) (*Table, error) {
	if p.N < 1 || p.Queries < 1 {
		return nil, fmt.Errorf("experiments: bad storefront params %+v", p)
	}
	t := &Table{
		Title:  "§2.4 analysis: storefront relay coverage after a year of customer traffic",
		Header: []string{"Customer workload α", "Queries relayed", "Catalogue coverage"},
	}
	for _, alpha := range p.Alphas {
		coverage, err := adversary.Storefront(p.N, alpha, p.Queries, p.Seed)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", alpha),
			fmt.Sprintf("%d", p.Queries),
			fmt.Sprintf("%.1f%%", 100*coverage),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("catalogue of %d objects; low-skew customers eventually cover everything, but the sharper the skew the larger the tail that never arrives", p.N))
	return t, nil
}

// SybilDetectionParams configures the extraction-detection rerun of the
// §2.4 Sybil analysis: coordinated k-identity extraction against a
// defense that sketches per-principal coverage, clusters coordinated
// signatures into coalitions, and surcharges the coalition's delay.
type SybilDetectionParams struct {
	SybilParams

	// Grace, MultCap and Jaccard parameterize the detector; see
	// detect.Config.
	Grace   float64
	MultCap float64
	Jaccard float64
	// VerifyFraction is the shared verification sample each Sybil stream
	// re-fetches (see adversary.CoordinatedStreams).
	VerifyFraction float64

	// LegitUsers Zipf(LegitAlpha) readers issue LegitQueries queries each
	// through the same detector, to measure collateral damage.
	LegitUsers   int
	LegitQueries int
	LegitAlpha   float64
}

// DefaultSybilDetectionParams returns the paper-scale configuration.
func DefaultSybilDetectionParams() SybilDetectionParams {
	return SybilDetectionParams{
		SybilParams: SybilParams{CalgaryParams: DefaultCalgaryParams(), Ks: []int{1, 4, 16, 64}},
		Grace:       0.08, MultCap: 256, Jaccard: 0.35,
		VerifyFraction: 0.25,
		LegitUsers:     32, LegitQueries: 1000, LegitAlpha: 1.0,
	}
}

// SybilDetectionResult carries the measured quantities behind the table,
// for assertions.
type SybilDetectionResult struct {
	Table *Table
	// BaselineWall is the single-identity, detection-off extraction time.
	BaselineWall time.Duration
	// NoDetectWall and DetectWall are indexed like Params.Ks.
	NoDetectWall []time.Duration
	DetectWall   []time.Duration
	// PerIdentityCoverage and UnionCoverage are the detector's estimates
	// after each k-identity run.
	PerIdentityCoverage []float64
	UnionCoverage       []float64
	// LegitMedianOff/On are the legitimate per-query median delays
	// without and with detection (shared detector with the largest-k
	// coalition).
	LegitMedianOff time.Duration
	LegitMedianOn  time.Duration
}

// SybilDetection reruns the parallel-extraction analysis with the
// detection subsystem in the loop, through the product: each k runs
// against a fresh node whose shield sketches every principal's reads.
// Each of k Sybil identities fetches a disjoint shard plus a shared
// verification sample; the detector's signature clustering attributes
// the union coverage back to every member, so the per-stream surcharge
// grows with what the *coalition* holds and the k-way wall-time
// advantage collapses.
func SybilDetection(p SybilDetectionParams) (*SybilDetectionResult, error) {
	d, baseline, err := p.defense()
	if err != nil {
		return nil, err
	}
	res := &SybilDetectionResult{BaselineWall: baseline, Table: &Table{
		Title: "Sybil extraction with detection: coalition surcharges collapse the k-identity advantage",
		Header: []string{
			"Identities", "No detection (h)", "With detection (h)",
			"Per-identity cov", "Union cov",
		},
	}}
	n := len(p.Ks)
	res.NoDetectWall, res.DetectWall = make([]time.Duration, n), make([]time.Duration, n)
	res.PerIdentityCoverage, res.UnionCoverage = make([]float64, n), make([]float64, n)
	err = inParallel(n, func(i int) (err error) {
		if res.NoDetectWall[i], err = d.Extract(p.Ks[i], 0); err != nil {
			return err
		}
		b := d.newBed()
		defer b.close()
		node, err := b.shield(p.detector(d.n))
		if err != nil {
			return err
		}
		to := shieldFront(node)
		if res.DetectWall[i], err = p.coalition(d, p.Ks[i], func(int, int) front { return to }, []*core.Shield{node}, nil); err != nil {
			return err
		}
		res.PerIdentityCoverage[i], res.UnionCoverage[i] = coverage(node.Detector(), p.Ks[i])
		if i == n-1 {
			// Collateral damage: Zipf readers through the node that just
			// watched the largest coalition.
			res.LegitMedianOff, res.LegitMedianOn, err = p.legit(d.n, to, func(uint64) *core.Shield { return node })
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, k := range p.Ks {
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(res.NoDetectWall[i]), Hours(res.DetectWall[i]),
			fmt.Sprintf("%.1f%%", 100*res.PerIdentityCoverage[i]), fmt.Sprintf("%.1f%%", 100*res.UnionCoverage[i]),
		})
	}
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; every coalition stream re-fetches a shared %.0f%% verification sample",
			Hours(baseline), d.n, 100*p.VerifyFraction),
		fmt.Sprintf("legitimate median delay: %s off vs %s with detection (%d Zipf(%.1f) users × %d queries, shared detector)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn),
			p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

// defense is p's learned defense and its single-identity, detection-off
// extraction time.
func (p SybilParams) defense() (*Defense, time.Duration, error) {
	d, err := LearnDefense(p.CalgaryParams)
	if err != nil {
		return nil, 0, err
	}
	seq, err := d.Extract(1, 0)
	return d, seq, err
}

// detector is the detection every shield of a run enables.
func (p SybilDetectionParams) detector(n int) *detect.Config {
	return &detect.Config{
		CatalogSize:      n,
		Policy:           detect.EscalationPolicy{Grace: p.Grace, Cap: p.MultCap},
		JaccardThreshold: p.Jaccard,
	}
}

// coalition runs one k-identity coordinated extraction, identity i's
// round-r reads going to route(i, r), with between (when non-nil) after
// every round and once more at the end, as round -1, as an exchange
// runs. The nodes'
// detectors then recluster. It returns the coalition's wall time: its
// slowest identity's bill.
func (p SybilDetectionParams) coalition(d *Defense, k int, route func(i, round int) front, nodes []*core.Shield, between func(round int) error) (time.Duration, error) {
	streams, err := adversary.CoordinatedStreams(d.catalog(), k, p.VerifyFraction, p.Seed)
	if err != nil {
		return 0, err
	}
	bills, err := lockstep(streams, route, between)
	if err == nil && between != nil {
		err = between(-1)
	}
	if err != nil {
		return 0, err
	}
	for _, sh := range nodes {
		sh.Detector().Recluster()
	}
	return slices.Max(bills), nil
}

// coverage is detector d's view of a k-identity coalition: the mean
// per-identity coverage, and the best union estimate — an identity's
// own coverage or its coalition's.
func coverage(d *detect.Detector, k int) (perID, union float64) {
	for _, s := range d.Suspects(k) {
		perID += s.Coverage / float64(k)
		union = max(union, s.Coverage, s.CoalitionCoverage)
	}
	return perID, union
}

// ShardedSybilParams configures the clustered reruns of the Sybil
// detection experiment: the same coordinated k-identity extraction
// against Shards nodes, each with its own detector, arranged so no one
// detector sees enough local coverage to escalate. Anti-entropy — the
// router's per-principal sketch exchange — is the countermeasure.
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

// validate rejects what every cluster experiment rejects, before
// ExchangeEvery divides a round count.
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
// cluster whose every shard holds every tuple. Identity i sends its
// round-r reads to shard (i+r) mod Shards's own front door, as a client
// that can reach the shards could, so each shard sees ~1/Shards of every
// identity's stream and stays under the escalation grace. With
// anti-entropy on, the router merges the shards' per-principal sketches
// every ExchangeEvery rounds (Router.ExchangeNowFloor), restoring each
// shard's view of every identity's global coverage.
func ShardedSybilDetection(p ShardedSybilParams) (*ShardedSybilResult, error) {
	res, d, err := p.runs(0, [2]variant{{r: 1, dead: -1}, {r: 1, dead: -1, exchange: true}},
		func(dep *deployment, i, r int) front { return dep.shards[(i+r)%p.Shards] })
	if err != nil {
		return nil, err
	}
	p.exchangeTable(res, fmt.Sprintf("Sharded Sybil extraction over %d shards: anti-entropy sketch exchange restores the surcharge", p.Shards),
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; identities rotate shard front doors per round, exchange every %d round(s), export floor %.0f%%",
			Hours(res.BaselineWall), d.n, p.ExchangeEvery, 100*p.ExportFloor),
		fmt.Sprintf("legitimate median delay: %s off vs %s with sharded detection (%d Zipf(%.1f) users × %d queries through the router)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn), p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

// PartitionedSybilParams configures the Sybil reruns against a
// partitioned cluster: tuples hash to owner shards through the router's
// partition map, so the tuple's owner, not the coalition, picks the shard
// that sees a read.
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
// a partitioned cluster: every read goes through the router to its
// tuple's owner, so each shard's detector sees only its slice of every
// identity's stream, far under the escalation grace, until anti-entropy
// merges the slices. A query touching several shards is billed the sum
// of its legs' delays, but its client waits only for the slowest leg
// (cluster.TestScatterBillGap); these attackers read one tuple per
// query, so no leg overlaps another.
func PartitionedSybilDetection(p PartitionedSybilParams) (*ShardedSybilResult, error) {
	res, d, err := p.runs(p.partitions(), [2]variant{{r: 1, dead: -1}, {r: 1, dead: -1, exchange: true}}, viaRouter)
	if err != nil {
		return nil, err
	}
	p.exchangeTable(res, fmt.Sprintf("Partitioned Sybil extraction: %d shards × %d partitions, coalition splits the key range", p.Shards, p.partitions()),
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; tuples hash to owners, exchange every %d round(s), export floor %.0f%%",
			Hours(res.BaselineWall), d.n, p.ExchangeEvery, 100*p.ExportFloor),
		fmt.Sprintf("legitimate median delay: %s off vs %s with partitioned detection (%d Zipf(%.1f) users × %d point queries through the router)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn), p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

func (p PartitionedSybilParams) partitions() int {
	if p.Partitions == 0 {
		return cluster.DefaultPartitions
	}
	return p.Partitions
}

// PartitionedShardKillSybil reruns the partitioned coalition at R = 2
// with shard 0 killed (cluster.Chaos) for the whole attack: the router
// fails each read over to its partition's surviving replica, whose
// detector observes it, and exchanges among the survivors — the
// detection half of the shard-kill contract (torture.RunCluster is the
// data half). OffWall holds the all-up walls, OnWall and OnUnionCoverage
// the shard-down ones.
func PartitionedShardKillSybil(p PartitionedSybilParams) (*ShardedSybilResult, error) {
	res, d, err := p.runs(p.partitions(), [2]variant{{r: 2, dead: -1, exchange: true}, {r: 2, dead: 0, exchange: true}}, viaRouter)
	if err != nil {
		return nil, err
	}
	res.Table = &Table{
		Title: fmt.Sprintf(
			"Shard-kill Sybil extraction: %d shards × %d partitions × R=2, shard-0 dead for the whole attack",
			p.Shards, p.partitions()),
		Header: []string{
			"Identities", "All shards up (h)", "Shard down (h)",
			"Up/baseline", "Down/baseline", "Cov (down)",
		},
		Notes: []string{fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; the router fails each dead-shard partition over to its surviving replica, whose detector observes the query",
			Hours(res.BaselineWall), d.n)},
	}
	for i, k := range p.Ks {
		up, down := res.OffWall[i], res.OnWall[i]
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(up), Hours(down),
			fmt.Sprintf("%.1fx", up.Seconds()/res.BaselineWall.Seconds()),
			fmt.Sprintf("%.1fx", down.Seconds()/res.BaselineWall.Seconds()),
			fmt.Sprintf("%.1f%%", 100*res.OnUnionCoverage[i]),
		})
	}
	return res, nil
}

// variant is one column of a cluster table: the replication of the
// layout the coalition attacks, the shard killed before the attack (-1
// for none), and whether the router exchanges sketches.
type variant struct {
	r, dead  int
	exchange bool
}

func viaRouter(dep *deployment, _, _ int) front { return dep.front }

// runs runs the coalition of every k in p.Ks against a fresh deployment
// of p.Shards shards per variant, identity i's round-r reads going to
// route(dep, i, r). Variant 0 fills OffWall and OffUnionCoverage, variant
// 1 OnWall and OnUnionCoverage, as the first live shard sees coverage; an
// exchanging variant runs an anti-entropy round every ExchangeEvery
// rounds and once at the end. When variant 1 has every shard up, the
// legitimate readers then go through its largest k's router.
func (p ShardedSybilParams) runs(partitions int, vs [2]variant, route func(dep *deployment, i, r int) front) (*ShardedSybilResult, *Defense, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	d, baseline, err := p.defense()
	if err != nil {
		return nil, nil, err
	}
	n := len(p.Ks)
	res := &ShardedSybilResult{BaselineWall: baseline,
		OffWall: make([]time.Duration, n), OnWall: make([]time.Duration, n),
		OffUnionCoverage: make([]float64, n), OnUnionCoverage: make([]float64, n)}
	walls, covs := [2][]time.Duration{res.OffWall, res.OnWall}, [2][]float64{res.OffUnionCoverage, res.OnUnionCoverage}
	err = inParallel(2*n, func(j int) error {
		i, v := j/2, vs[j%2]
		b := d.newBed()
		defer b.close()
		dep, err := b.cluster(p.Shards, partitions, v.r, p.detector(d.n))
		if err != nil {
			return err
		}
		if v.dead >= 0 {
			dep.chaos[v.dead].Kill()
		}
		var between func(int) error
		if v.exchange {
			between = func(round int) error {
				if round >= 0 && (round+1)%p.ExchangeEvery != 0 {
					return nil
				}
				// A killed shard fails the round that first finds it
				// down; the router latches it and exchanges among the
				// survivors.
				if err := dep.router.ExchangeNowFloor(p.ExportFloor); err != nil && v.dead < 0 {
					return err
				}
				return nil
			}
		}
		to := func(i, r int) front { return route(dep, i, r) }
		if walls[j%2][i], err = p.coalition(d, p.Ks[i], to, dep.shields, between); err != nil {
			return err
		}
		_, covs[j%2][i] = coverage(dep.shields[v.dead+1].Detector(), p.Ks[i])
		if v.dead < 0 && j == 2*n-1 {
			pm := dep.router.CurrentPartitionMap()
			res.LegitMedianOff, res.LegitMedianOn, err = p.legit(d.n, dep.front, func(id uint64) *core.Shield { return dep.shields[pm.OwnerOf(int64(id))] })
		}
		return err
	})
	return res, d, err
}

// exchangeTable tabulates an exchange-off/on result against its
// baseline.
func (p ShardedSybilParams) exchangeTable(res *ShardedSybilResult, title string, notes ...string) {
	res.Table = &Table{
		Title: title,
		Header: []string{
			"Identities", "Exchange off (h)", "Exchange on (h)",
			"On/baseline", "Shard cov off", "Shard cov on",
		},
		Notes: notes,
	}
	for i, k := range p.Ks {
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(res.OffWall[i]), Hours(res.OnWall[i]),
			fmt.Sprintf("%.1fx", res.OnWall[i].Seconds()/res.BaselineWall.Seconds()),
			fmt.Sprintf("%.1f%%", 100*res.OffUnionCoverage[i]), fmt.Sprintf("%.1f%%", 100*res.OnUnionCoverage[i]),
		})
	}
}
