package experiments

import (
	"testing"
)

func TestSybilAnalysisShape(t *testing.T) {
	p := DefaultSybilParams()
	p.Scale = 20
	p.Ks = []int{1, 8, 64}
	tab, err := SybilAnalysis(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Column 1 (no throttle) falls with k; column 3 (neutralizing) never
	// drops below the k=1 wall time.
	noThrottle := make([]float64, len(tab.Rows))
	neutral := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		noThrottle[i] = mustFloat(t, row[1])
		neutral[i] = mustFloat(t, row[3])
	}
	if !(noThrottle[0] > noThrottle[1] && noThrottle[1] > noThrottle[2]) {
		t.Fatalf("no-throttle wall times not decreasing: %v", noThrottle)
	}
	for i := 1; i < len(neutral); i++ {
		if neutral[i] < neutral[0]*0.99 {
			t.Fatalf("neutralizing throttle beaten at k=%s: %v < %v",
				tab.Rows[i][0], neutral[i], neutral[0])
		}
	}
}

func TestStorefrontCoverageShape(t *testing.T) {
	p := DefaultStorefrontParams()
	p.N = 3000
	p.Queries = 150_000
	tab, err := StorefrontCoverage(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(p.Alphas) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Coverage must be non-increasing in skew, and materially below 100%
	// at the sharpest skew.
	var prev = 101.0
	for _, row := range tab.Rows {
		cov := mustFloat(t, row[2][:len(row[2])-1]) // strip %
		if cov > prev+0.1 {
			t.Fatalf("coverage rose with skew: %v after %v", cov, prev)
		}
		prev = cov
	}
	if prev > 60 {
		t.Fatalf("sharpest-skew coverage = %v%%, expected well below 100%%", prev)
	}
}

func TestStorefrontCoverageValidation(t *testing.T) {
	p := DefaultStorefrontParams()
	p.N = 0
	if _, err := StorefrontCoverage(p); err == nil {
		t.Fatal("bad params accepted")
	}
}
