package experiments

import (
	"fmt"
	"time"

	"repro/internal/counters"
	"repro/internal/delay"
	"repro/internal/trace"
	"repro/internal/zipf"
)

// CalgaryParams configures the §4.1 experiments (Fig 1, Tables 1–3).
type CalgaryParams struct {
	// Scale divides object and request counts for fast test runs;
	// 1 = paper scale (12,179 objects, 725,091 requests).
	Scale int
	// Cap is dmax (paper: 10 s).
	Cap time.Duration
	// CapFraction is the fraction of ranks left below the cap when β is
	// tuned; ~0.1 reproduces the paper's "nearly 90% of the maximum
	// possible delay" adversary outcome.
	CapFraction float64
	Seed        int64
}

// DefaultCalgaryParams returns the paper-scale configuration.
func DefaultCalgaryParams() CalgaryParams {
	return CalgaryParams{Scale: 1, Cap: 10 * time.Second, CapFraction: 0.1, Seed: 2004}
}

func (p CalgaryParams) objects() int  { return max(trace.CalgaryObjects/p.Scale, 50) }
func (p CalgaryParams) requests() int { return max(trace.CalgaryRequests/p.Scale, 5000) }

// learnTracker replays a trace into a fresh tracker (no delay policy
// involved) and returns it.
func learnTracker(tr *trace.Trace, decayRate float64) (*counters.Decayed, error) {
	tracker, err := counters.NewDecayed(decayRate)
	if err != nil {
		return nil, err
	}
	for _, id := range tr.Requests {
		tracker.Observe(id)
	}
	return tracker, nil
}

// tunedBeta tunes β for tr's catalog (§2.2) from its most-requested
// object's count: the fmax a no-decay pre-pass would learn.
func tunedBeta(tr *trace.Trace, alpha float64, cap time.Duration, capFraction float64) (float64, error) {
	_, top := tr.TopK(1)
	return delay.TuneBeta(tr.NumObjects, alpha, float64(top[0]), cap, capFraction)
}

// calgaryTrace synthesizes the two-regime Calgary-shaped workload at the
// configured scale.
func calgaryTrace(name string, p CalgaryParams) (*trace.Trace, error) {
	return trace.SyntheticWeb(name, p.objects(), p.requests(),
		trace.CalgaryAlpha, trace.CalgaryTailAlpha, trace.CalgaryHeadRanks, p.Seed)
}

// Fig1 reproduces Figure 1: the rank-frequency head of the Calgary-shaped
// trace, plus the power-law skew fitted to the top ranks.
func Fig1(p CalgaryParams) (*Table, error) {
	tr, err := calgaryTrace("calgary", p)
	if err != nil {
		return nil, err
	}
	return Fig1FromTrace(tr)
}

// Fig1FromTrace runs the Figure 1 analysis on an arbitrary trace — pass
// the real Calgary trace (converted with cmd/tracegen's format) to
// reproduce the paper's figure exactly.
func Fig1FromTrace(tr *trace.Trace) (*Table, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	_, counts := tr.TopK(10)
	t := &Table{
		Title:  "Fig 1. Request Distribution: Calgary-shaped trace (top 10 by rank)",
		Header: []string{"Rank", "Frequency (requests)"},
	}
	fc := make([]float64, len(counts))
	for i, c := range counts {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", c)})
		fc[i] = float64(c)
	}
	addBarColumn(t, fc, 40, false)
	if alpha, err := zipf.EstimateAlpha(fc, 10); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("fitted Zipf parameter over top 10: alpha ≈ %.2f (paper: ≈1.5)", alpha))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d objects, %d requests", tr.NumObjects, len(tr.Requests)))
	return t, nil
}

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	N              int
	MedianDelay    time.Duration
	AdversaryDelay time.Duration
}

// Table1 reproduces Table 1 (Delays in Synthetic Traces): Calgary-shaped
// workloads over databases of increasing size. The request volume stays
// at the trace's 725,091, so larger databases have ever-longer unvisited
// tails — which is exactly why the adversary's total delay approaches
// N·dmax (2, 8, and 17 weeks in the paper).
func Table1(p CalgaryParams) (*Table, []Table1Row, error) {
	sizes := []int{100_000, 500_000, 1_000_000}
	t := &Table{
		Title:  "Table 1. Delays in Synthetic Traces",
		Header: []string{"Database Size (tuples)", "Median User Delay (ms)", "Adversary Delay (weeks)"},
	}
	var rows []Table1Row
	for _, size := range sizes {
		n := max(size/p.Scale, 100)
		reqs := p.requests()
		tr, err := trace.Synthetic("t1", n, reqs, trace.CalgaryAlpha, p.Seed)
		if err != nil {
			return nil, nil, err
		}
		tracker, err := learnTracker(tr, 1)
		if err != nil {
			return nil, nil, err
		}
		fmax := tracker.MaxCount()
		beta, err := delay.TuneBeta(n, trace.CalgaryAlpha, fmax, p.Cap, p.CapFraction)
		if err != nil {
			return nil, nil, err
		}
		pol, err := delay.NewPopularity(delay.PopularityConfig{
			N: n, Alpha: trace.CalgaryAlpha, Beta: beta, Cap: p.Cap,
		}, tracker)
		if err != nil {
			return nil, nil, err
		}
		// Median legitimate delay: quote a fresh sample from the same
		// workload distribution against the learned state.
		d, err := zipf.New(n, trace.CalgaryAlpha)
		if err != nil {
			return nil, nil, err
		}
		s := zipf.NewSampler(d, p.Seed+1)
		probe := 10001
		delays := make([]float64, probe)
		for i := range delays {
			delays[i] = pol.Delay(uint64(s.Next() - 1)).Seconds()
		}
		row := Table1Row{
			N:              n,
			MedianDelay:    delay.SecondsToDuration(medianSeconds(delays)),
			AdversaryDelay: pol.ExtractionDelay(),
		}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.1f", float64(row.MedianDelay)/float64(time.Millisecond)),
			WeeksStr(row.AdversaryDelay),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("cap %v, %d learning requests per size (paper: 0.0 ms / 2, 8, 17 weeks)", p.Cap, p.requests()))
	return t, rows, nil
}

// Table2Row is one measured row of Table 2.
type Table2Row struct {
	Cap            time.Duration
	AdversaryDelay time.Duration
}

// Table2 reproduces Table 2 (Scaling Maximum Delay Costs): the adversary
// delay on the Calgary-shaped dataset as the cap sweeps 0.1 s → 100 s,
// with β held at its 10 s tuning. "Raising the cap has no impact on the
// median delay, but directly affects the total delay imposed on an
// adversary."
func Table2(p CalgaryParams) (*Table, []Table2Row, error) {
	caps := []time.Duration{
		100 * time.Millisecond, time.Second, 10 * time.Second, 100 * time.Second,
	}
	tr, err := calgaryTrace("t2", p)
	if err != nil {
		return nil, nil, err
	}
	tracker, err := learnTracker(tr, 1)
	if err != nil {
		return nil, nil, err
	}
	fmax := tracker.MaxCount()
	beta, err := delay.TuneBeta(p.objects(), trace.CalgaryAlpha, fmax, p.Cap, p.CapFraction)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "Table 2. Scaling Maximum Delay Costs",
		Header: []string{"Cap (sec)", "Adversary Delay (hours)"},
	}
	var rows []Table2Row
	for _, cap := range caps {
		pol, err := delay.NewPopularity(delay.PopularityConfig{
			N: p.objects(), Alpha: trace.CalgaryAlpha, Beta: beta, Cap: cap,
		}, tracker)
		if err != nil {
			return nil, nil, err
		}
		row := Table2Row{Cap: cap, AdversaryDelay: pol.ExtractionDelay()}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", cap.Seconds()),
			Hours(row.AdversaryDelay),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d objects, beta tuned at cap 10 s (paper: 0.33, 3.16, 30.17, 282.70 hours)", p.objects()))
	return t, rows, nil
}

// Table3Row is one measured row of Table 3.
type Table3Row struct {
	DecayRate      float64
	MedianDelay    time.Duration
	AdversaryDelay time.Duration
}

// Table3 reproduces Table 3 (Delays in Calgary Trace): the full online
// replay — nothing known at the start, the distribution learned along the
// way — across six per-request decay rates. Stronger decay shrinks the
// effective history, which shrinks fmax, which raises every delay: median
// delays climb, and adversary delay creeps toward the N·dmax ceiling.
func Table3(p CalgaryParams) (*Table, []Table3Row, error) {
	decays := []float64{1.000000, 1.000001, 1.000002, 1.000005, 1.000010, 1.000020}
	// Decay rates are per-request exponents; scaled-down replays have
	// fewer requests, so amplify the rates to keep the effective history
	// window a comparable fraction of the trace.
	if p.Scale > 1 {
		for i := range decays {
			decays[i] = 1 + (decays[i]-1)*float64(p.Scale)
		}
	}
	tr, err := calgaryTrace("t3", p)
	if err != nil {
		return nil, nil, err
	}
	return Table3FromTrace(tr, p, decays)
}

// Table3FromTrace runs the Table 3 decay sweep on an arbitrary trace —
// pass the real Calgary trace to reproduce the paper's table exactly.
func Table3FromTrace(tr *trace.Trace, p CalgaryParams, decays []float64) (*Table, []Table3Row, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	n := tr.NumObjects
	// β tuned once, then held fixed across rates — the decay sweep must
	// change only the learning dynamics.
	beta, err := tunedBeta(tr, trace.CalgaryAlpha, p.Cap, p.CapFraction)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  "Table 3. Delays in Calgary Trace (online learning, decay sweep)",
		Header: []string{"Decay Rate", "Median User Delay (ms)", "Adversary Delay (hours)"},
	}
	var rows []Table3Row
	for _, rate := range decays {
		res, err := ReplayPopularity(tr, rate, delay.PopularityConfig{
			N: n, Alpha: trace.CalgaryAlpha, Beta: beta, Cap: p.Cap,
		}, false)
		if err != nil {
			return nil, nil, err
		}
		row := Table3Row{DecayRate: rate, MedianDelay: res.MedianDelay, AdversaryDelay: res.AdversaryDelay}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.6f", rate),
			Millis(row.MedianDelay),
			Hours(row.AdversaryDelay),
		})
	}
	maxPossible := time.Duration(n) * p.Cap
	t.Notes = append(t.Notes,
		fmt.Sprintf("maximum possible adversary delay %s hours; paper: median 15.4→2241.6 ms, adversary 30.17→33.61 hours of a 33.8-hour max", Hours(maxPossible)))
	return t, rows, nil
}

// ReplayResult is the outcome of replaying a trace through a popularity
// policy: the learned tracker plus the per-request delays a legitimate
// user would have experienced.
type ReplayResult struct {
	// MedianDelay is the median per-request delay over the replay.
	MedianDelay time.Duration
	// AdversaryDelay is the post-replay full-extraction delay (Eq 6
	// under the learned counts).
	AdversaryDelay time.Duration
	// MaxPossible is N·cap, the delay ceiling for a full extraction.
	MaxPossible time.Duration
	// Requests is the number of requests replayed.
	Requests int
}

// ReplayPopularity replays tr through a fresh tracker with the given
// decay rate and a popularity policy with the given parameters, learning
// the distribution online exactly as §2.3 describes: each request is
// quoted the delay implied by the counts so far, then counted.
//
// weeklyDecay selects the §4.2 cadence (decay applied at week boundaries)
// instead of the §4.1 per-request cadence.
func ReplayPopularity(tr *trace.Trace, decayRate float64, cfg delay.PopularityConfig, weeklyDecay bool) (ReplayResult, error) {
	tracker, err := counters.NewDecayed(decayRate)
	if err != nil {
		return ReplayResult{}, err
	}
	pol, err := delay.NewPopularity(cfg, tracker)
	if err != nil {
		return ReplayResult{}, err
	}
	delays := make([]float64, 0, len(tr.Requests))
	week := 0
	for i, id := range tr.Requests {
		if weeklyDecay && tr.WeekOf != nil && tr.WeekOf[i] != week {
			for w := week; w < tr.WeekOf[i]; w++ {
				tracker.Tick()
			}
			week = tr.WeekOf[i]
		}
		delays = append(delays, pol.Delay(id).Seconds())
		if weeklyDecay {
			tracker.ObserveNoDecay(id)
		} else {
			tracker.Observe(id)
		}
	}
	return ReplayResult{
		MedianDelay:    delay.SecondsToDuration(medianSeconds(delays)),
		AdversaryDelay: pol.ExtractionDelay(),
		MaxPossible:    time.Duration(cfg.N) * cfg.Cap,
		Requests:       len(tr.Requests),
	}, nil
}
