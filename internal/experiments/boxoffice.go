package experiments

import (
	"fmt"
	"time"

	"repro/internal/delay"
	"repro/internal/trace"
)

// BoxOfficeParams configures the §4.2 experiments (Figs 2–3, Table 4).
type BoxOfficeParams struct {
	Cap time.Duration
	// CapFraction tunes β exactly as in the Calgary experiments.
	CapFraction float64
	Seed        int64
}

// DefaultBoxOfficeParams returns the paper-scale configuration (the box
// office dataset is small — 634 films — so there is no scale knob).
func DefaultBoxOfficeParams() BoxOfficeParams {
	return BoxOfficeParams{Cap: 10 * time.Second, CapFraction: 0.25, Seed: 2002}
}

// Fig2 reproduces Figure 2: annual sales of the year's top 10 films —
// the mildly skewed whole-year view.
func Fig2(p BoxOfficeParams) (*Table, error) {
	b := trace.BoxOffice2002(p.Seed)
	_, sales := b.TopAnnual(10)
	t := &Table{
		Title:  "Fig 2. Sales Distribution of Top 10 Movies of 2002 (synthetic)",
		Header: []string{"Rank", "Annual Sales ($)"},
	}
	for i, s := range sales {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", i+1), fmt.Sprintf("%.0f", s)})
	}
	addBarColumn(t, sales, 40, false)
	if len(sales) >= 10 && sales[9] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("top-1/top-10 ratio %.1f (mild skew; paper shows ≈2.5)", sales[0]/sales[9]))
	}
	return t, nil
}

// Fig3 reproduces Figure 3: the same view for a single week — sharply
// skewed, because only a handful of recent releases dominate any week.
func Fig3(p BoxOfficeParams) (*Table, error) {
	b := trace.BoxOffice2002(p.Seed)
	// Week 1 in the paper; any single week shows the effect. Use a week
	// deep enough that the release schedule has filled in.
	const week = 26
	_, sales := b.TopWeek(week, 10)
	t := &Table{
		Title:  "Fig 3. Top 10 Movies for One Week of 2002 (synthetic)",
		Header: []string{"Rank", "Weekly Sales ($)"},
	}
	for i, s := range sales {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", i+1), fmt.Sprintf("%.0f", s)})
	}
	addBarColumn(t, sales, 40, false)
	if len(sales) >= 10 && sales[9] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("top-1/top-10 ratio %.1f (sharp skew; paper shows ≈10)", sales[0]/sales[9]))
	}
	return t, nil
}

// Table4Row is one measured row of Table 4.
type Table4Row struct {
	DecayRate      float64
	MedianDelay    time.Duration
	AdversaryDelay time.Duration
}

// Table4 reproduces Table 4 (Delays in Box Office Data): the full-year
// replay with decay applied at weekly boundaries, across nine rates. The
// popularity distribution shifts fast, so aggressive decay tracks it
// better; the adversary pays essentially the full N·dmax at high decay
// (the paper's "an adversary incurs 100% of the maximum possible total
// delay in this scenario").
//
// Divergence note: in our synthetic workload the median *falls* as decay
// strengthens, because without decay newly released films carry poor
// cumulative ranks and their (numerous) requests pay high delays — the
// exact §2.3 problem decay exists to solve ("Because there are often
// many more newly-popular requests, they have a significant impact on
// median delay"). The paper's Table 4 shows a mild rise instead,
// suggesting its real 2002 data was dominated by films whose cumulative
// rank was insensitive to decay. Both medians stay small; the adversary
// column matches the paper's shape closely. See EXPERIMENTS.md.
func Table4(p BoxOfficeParams) (*Table, []Table4Row, error) {
	decays := []float64{1.00, 1.01, 1.02, 1.05, 1.10, 1.20, 1.50, 2.00, 5.00}
	b := trace.BoxOffice2002(p.Seed)
	n := b.Trace.NumObjects

	// β held fixed across rates, as in Table 3.
	beta, err := tunedBeta(b.Trace, 1.0, p.Cap, p.CapFraction)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Table 4. Delays in Box Office Data (weekly decay sweep)",
		Header: []string{"Decay Rate", "Median User Delay (ms)", "Adversary Delay (hours)"},
	}
	var rows []Table4Row
	for _, rate := range decays {
		res, err := ReplayPopularity(b.Trace, rate, delay.PopularityConfig{
			N: n, Alpha: 1.0, Beta: beta, Cap: p.Cap,
		}, true)
		if err != nil {
			return nil, nil, err
		}
		row := Table4Row{DecayRate: rate, MedianDelay: res.MedianDelay, AdversaryDelay: res.AdversaryDelay}
		rows = append(rows, row)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", rate),
			Millis(row.MedianDelay),
			Hours(row.AdversaryDelay),
		})
	}
	maxPossible := time.Duration(n) * p.Cap
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d films, %d requests, max possible adversary delay %s hours; paper: median 0.03→1.26 ms, adversary 1.33→1.76 hours of a 1.76-hour max",
			n, len(b.Trace.Requests), Hours(maxPossible)))
	return t, rows, nil
}
