package experiments

import (
	"testing"
	"time"

	"repro/internal/ratelimit"
)

// coldDefense is a 64-tuple catalog with nothing learned: every tuple's
// first read is priced at the 1 s cap, so a whole-catalog extraction is
// billed 64 s however it is split.
func coldDefense() *Defense {
	return &Defense{n: 64, cap: time.Second, beta: 2}
}

// TestExtractOneIdentityWallIsBill: one identity reads the catalog
// alone, so its wall time is the whole bill.
func TestExtractOneIdentityWallIsBill(t *testing.T) {
	wall, err := coldDefense().Extract(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wall != 64*time.Second {
		t.Fatalf("wall %v, want 64s", wall)
	}
}

// TestExtractWallIsSlowestIdentity: the identities read in parallel, so
// an extraction's wall time is its slowest identity's bill; an even split
// divides the bill by k.
func TestExtractWallIsSlowestIdentity(t *testing.T) {
	wall, err := coldDefense().Extract(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wall != 8*time.Second {
		t.Fatalf("k=8: wall %v, want 8s", wall)
	}
}

// TestExtractUnevenStreamsSlowestSetsWall: an uneven split waits for the
// identity with the most tuples.
func TestExtractUnevenStreamsSlowestSetsWall(t *testing.T) {
	// 64 tuples round-robin over 10 identities: four read 7, six read 6.
	wall, err := coldDefense().Extract(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wall != 7*time.Second {
		t.Fatalf("k=10: wall %v, want 7s", wall)
	}
}

// TestExtractThrottleAddsKT: registering k identities at one per t adds
// k·t to the wall time.
func TestExtractThrottleAddsKT(t *testing.T) {
	wall, err := coldDefense().Extract(10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if want := 7*time.Second + 10*time.Minute; wall != want {
		t.Fatalf("wall %v, want %v", wall, want)
	}
}

// fastestExtraction measures k = 1..8 identities registered one per
// interval and returns the fastest.
func fastestExtraction(t *testing.T, d *Defense, interval time.Duration) (bestK int, best time.Duration) {
	t.Helper()
	for k := 1; k <= 8; k++ {
		wall, err := d.Extract(k, interval)
		if err != nil {
			t.Fatal(err)
		}
		if k == 1 || wall < best {
			bestK, best = k, wall
		}
	}
	return bestK, best
}

// TestOptimalExtractionMatchesAnalyticK: the fastest measured attack
// uses the identity count the §2.4 cost model predicts.
func TestOptimalExtractionMatchesAnalyticK(t *testing.T) {
	d := coldDefense()
	// k·4 s + 64 s/k is least at k = √(64/4) = 4: 32 s.
	seq, err := d.Extract(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	analyticK, _ := ratelimit.OptimalParallelism(seq, 4*time.Second)
	if k, wall := fastestExtraction(t, d, 4*time.Second); k != analyticK || analyticK != 4 || wall != 32*time.Second {
		t.Fatalf("fastest k=%d in %v, analytic k*=%d; want k=4 in 32 s", k, wall, analyticK)
	}
}

// TestOptimalExtractionUnthrottledIsMostParallel: without a throttle the
// most parallel attack wins.
func TestOptimalExtractionUnthrottledIsMostParallel(t *testing.T) {
	if k, _ := fastestExtraction(t, coldDefense(), 0); k != 8 {
		t.Fatalf("unthrottled fastest k=%d, want the most parallel, 8", k)
	}
}

func TestExtractRejects(t *testing.T) {
	if _, err := coldDefense().Extract(0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := lockstep([][]uint64{{1}}, func(int, int) front { return nil }, nil); err == nil {
		t.Error("nil front accepted")
	}
}
