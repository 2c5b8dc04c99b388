package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/adversary"
	"repro/internal/delay"
	"repro/internal/detect"
	"repro/internal/zipf"
)

// SybilDetectionParams configures the extraction-detection rerun of the
// §2.4 Sybil analysis: coordinated k-identity extraction against a
// defense that sketches per-principal coverage, clusters coordinated
// signatures into coalitions, and surcharges the coalition's delay.
type SybilDetectionParams struct {
	Scale       int
	Cap         time.Duration
	CapFraction float64
	// Ks are the identity counts evaluated.
	Ks   []int
	Seed int64

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
		Scale: 1, Cap: 10 * time.Second, CapFraction: 0.1,
		Ks:    []int{1, 4, 16, 64},
		Seed:  2004,
		Grace: 0.08, MultCap: 256, Jaccard: 0.35,
		VerifyFraction: 0.25,
		LegitUsers:     32, LegitQueries: 1000, LegitAlpha: 1.0,
	}
}

// sybilBatch is how many tuples a stream fetches per query; streams are
// interleaved batch-by-batch so the detector sees them concurrently.
const sybilBatch = 50

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
// detection subsystem in the loop. Each of k Sybil identities fetches a
// disjoint shard plus a shared verification sample; the detector's
// signature clustering attributes the union coverage back to every
// member, so the per-stream surcharge grows with what the *coalition*
// holds and the k-way wall-time advantage collapses.
func SybilDetection(p SybilDetectionParams) (*SybilDetectionResult, error) {
	b, err := newSybilBed(p)
	if err != nil {
		return nil, err
	}
	res := &SybilDetectionResult{BaselineWall: b.baseline}
	t := &Table{
		Title: "Sybil extraction with detection: coalition surcharges collapse the k-identity advantage",
		Header: []string{
			"Identities", "No detection (h)", "With detection (h)",
			"Per-identity cov", "Union cov",
		},
	}
	single := func(_, _ int, _ uint64) int { return 0 }
	var last *detect.Detector
	for _, k := range p.Ks {
		rNone, err := adversary.Parallel(b.gate, b.ids, k, 0)
		if err != nil {
			return nil, err
		}
		wall, dets, err := b.coalition(k, 1, single, 0, 0, -1)
		if err != nil {
			return nil, err
		}
		last = dets[0]
		perID, union := coverage(last, k)
		res.NoDetectWall = append(res.NoDetectWall, rNone.WallTime)
		res.DetectWall = append(res.DetectWall, wall)
		res.PerIdentityCoverage = append(res.PerIdentityCoverage, perID)
		res.UnionCoverage = append(res.UnionCoverage, union)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			Hours(rNone.WallTime), Hours(wall),
			fmt.Sprintf("%.1f%%", 100*perID), fmt.Sprintf("%.1f%%", 100*union),
		})
	}

	// Collateral damage: Zipf readers through the detector that just
	// watched the largest coalition, vs the same queries detection-off.
	res.LegitMedianOff, res.LegitMedianOn, err = b.legit(func(int, uint64) *detect.Detector { return last })
	if err != nil {
		return nil, err
	}
	res.Table = t
	t.Notes = append(t.Notes,
		fmt.Sprintf("single-identity detection-off baseline: %s hours over %d tuples; every coalition stream re-fetches a shared %.0f%% verification sample",
			Hours(b.baseline), len(b.ids), 100*p.VerifyFraction),
		fmt.Sprintf("legitimate median delay: %s off vs %s with detection (%d Zipf(%.1f) users × %d queries, shared detector)",
			Millis(res.LegitMedianOff), Millis(res.LegitMedianOn),
			p.LegitUsers, p.LegitAlpha, p.LegitQueries))
	return res, nil
}

// sybilBed is what every detection experiment shares: the learned
// defense, the detector configuration, and the single-identity
// detection-off baseline the tables compare against.
type sybilBed struct {
	SybilDetectionParams
	gate     *delay.Gate
	ids      []uint64
	dcfg     detect.Config
	baseline time.Duration
}

func newSybilBed(p SybilDetectionParams) (*sybilBed, error) {
	gate, ids, err := learnedCalgary(CalgaryParams{Scale: p.Scale, Cap: p.Cap, CapFraction: p.CapFraction, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	baseline, err := adversary.Sequential(gate, ids)
	if err != nil {
		return nil, err
	}
	return &sybilBed{
		SybilDetectionParams: p, gate: gate, ids: ids, baseline: baseline.WallTime,
		dcfg: detect.Config{
			CatalogSize:      len(ids),
			Policy:           detect.EscalationPolicy{Grace: p.Grace, Cap: p.MultCap},
			JaccardThreshold: p.Jaccard,
		},
	}, nil
}

// placement names the detector that observes tuple id of identity i's
// batch in lockstep round r.
type placement func(i, r int, id uint64) int

// coalition drives one k-identity coordinated extraction against shards
// fresh detectors. Identities advance in lockstep, one batch per round;
// place splits each batch among the detectors, and the identity — one
// sequential client — pays the sum of each detector's quote scaled by
// that detector's multiplier. With every > 0 the detectors exchange
// sketches every that many rounds and once more at the end, as the
// cluster router's anti-entropy loop does; every == 0 is exchange off.
// dead (when >= 0) is a shard that neither observes nor exchanges.
// Returns the coalition wall time (its slowest identity) and the
// reclustered detectors.
func (b *sybilBed) coalition(k, shards int, place placement, every int, floor float64, dead int) (time.Duration, []*detect.Detector, error) {
	dets := make([]*detect.Detector, shards)
	for s := range dets {
		d, err := detect.NewDetector(b.dcfg)
		if err != nil {
			return 0, nil, err
		}
		dets[s] = d
	}
	streams, err := adversary.CoordinatedStreams(b.ids, k, b.VerifyFraction, b.Seed)
	if err != nil {
		return 0, nil, err
	}
	marks := make([]uint64, shards)
	walls := make([]time.Duration, k)
	sub := make([][]uint64, shards)
	round := 0
	for pos := 0; ; pos += sybilBatch {
		done := true
		for i, stream := range streams {
			if pos >= len(stream) {
				continue
			}
			done = false
			for s := range sub {
				sub[s] = sub[s][:0]
			}
			for _, id := range stream[pos:min(pos+sybilBatch, len(stream))] {
				s := place(i, round, id)
				sub[s] = append(sub[s], id)
			}
			name := fmt.Sprintf("sybil-%d", i)
			for s, part := range sub {
				if len(part) > 0 {
					walls[i] += b.gate.QuoteScaled(dets[s].ObserveBatch(name, part), part...)
				}
			}
		}
		if done {
			break
		}
		round++
		if every > 0 && round%every == 0 {
			exchangeSketches(dets, marks, floor, dead)
		}
	}
	if every > 0 {
		exchangeSketches(dets, marks, floor, dead)
	}
	for _, d := range dets {
		d.Recluster()
	}
	return slices.Max(walls), dets, nil
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

// legit replays LegitUsers Zipf(LegitAlpha) readers of LegitQueries point
// queries each, and returns the median per-query delay with detection
// off and with pick(user, id)'s detector observing every query.
func (b *sybilBed) legit(pick func(user int, id uint64) *detect.Detector) (off, on time.Duration, err error) {
	dist, err := zipf.New(len(b.ids), b.LegitAlpha)
	if err != nil {
		return 0, 0, err
	}
	sampler := zipf.NewSampler(dist, b.Seed+1)
	var offs, ons []float64
	for u := 0; u < b.LegitUsers; u++ {
		name := fmt.Sprintf("user-%d", u)
		for q := 0; q < b.LegitQueries; q++ {
			id := uint64(sampler.Next() - 1)
			offs = append(offs, b.gate.Quote(id).Seconds())
			mult := pick(u, id).ObserveBatch(name, []uint64{id})
			ons = append(ons, b.gate.QuoteScaled(mult, id).Seconds())
		}
	}
	return delay.SecondsToDuration(medianSeconds(offs)), delay.SecondsToDuration(medianSeconds(ons)), nil
}
