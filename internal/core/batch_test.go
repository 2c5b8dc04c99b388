package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// The batch-first invariant: a k-tuple SELECT enters the observe
// serialization section exactly once, in both adaptive and fixed-rate
// mode. Before batching, the adaptive observe closure took multiMu once
// per tuple.
func TestObserveBatchSingleLockPerQuery(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		cfg := Config{N: 200, Alpha: 1, Beta: 2, Cap: time.Second, Clock: simClock()}
		if adaptive {
			name = "adaptive"
			cfg.AdaptiveDecayRates = []float64{1, 1.05}
		}
		t.Run(name, func(t *testing.T) {
			db := testDB(t, 200)
			s, err := New(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, scan := range []int{1, 10, 100} {
				res, _, err := s.Query("u", fmt.Sprintf(`SELECT * FROM items WHERE id < %d`, scan))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Keys) != scan {
					t.Fatalf("scan %d returned %d tuples", scan, len(res.Keys))
				}
				if got := s.ObserveLockAcquisitions(); got != int64(i+1) {
					t.Fatalf("after %d queries (last: %d tuples): %d observe lock acquisitions", i+1, scan, got)
				}
			}
		})
	}
}

// lockCheckPolicy charges a millisecond per tuple and records how often
// it is asked to price, and whether mu was held while it priced.
type lockCheckPolicy struct {
	mu      *sync.Mutex
	calls   int
	lockHit bool
}

func (p *lockCheckPolicy) DelayBatch(ids []uint64) time.Duration {
	p.calls++
	if p.mu.TryLock() {
		p.mu.Unlock()
	} else {
		p.lockHit = true
	}
	return time.Duration(len(ids)) * time.Millisecond
}

// An adaptive quote takes the selector lock once per batch, not once per
// tuple: it resolves the active tracker under multiMu, releases it, and
// prices the whole batch with one call to that tracker's policy.
func TestAdaptiveQuoteResolvesOnce(t *testing.T) {
	db := testDB(t, 10)
	s, err := New(db, Config{
		N: 10, Alpha: 1, Beta: 2, Cap: time.Second, Clock: simClock(),
		AdaptiveDecayRates: []float64{1, 1.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	fake := &lockCheckPolicy{mu: &s.multiMu}
	for i := range s.adaptive.pols {
		s.adaptive.pols[i] = fake
	}
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if d := s.Gate().Quote(ids...); d != time.Second {
		t.Fatalf("quote = %v", d)
	}
	if fake.calls != 1 {
		t.Fatalf("one quote of %d tuples resolved the selector %d times", len(ids), fake.calls)
	}
	if fake.lockHit {
		t.Fatal("the batch was priced under the selector lock")
	}
}

// TopK snapshots under the selector lock: hammer it against queries that
// drive selector switches (warmup already past, shifting workload),
// under -race.
func TestRaceAdaptiveTopKDuringSelectorSwitches(t *testing.T) {
	db := testDB(t, 300)
	s, err := New(db, Config{
		N: 300, Alpha: 1, Beta: 2, Cap: 100 * time.Microsecond, Clock: vclock.Real{},
		AdaptiveDecayRates: []float64{1, 1.02, 1.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	warmSelector(t, s, 300)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				// Shift the hot set every few queries so tracker scores
				// diverge and the selector has reason to move.
				id := (i/8)*37%300 + g
				sql := fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, id%300)
				if _, _, err := s.Query("u", sql); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ids, counts := s.TopK(10)
			if len(ids) != len(counts) {
				t.Errorf("TopK: %d ids, %d counts", len(ids), len(counts))
				return
			}
			s.ActiveDecayRate()
		}
	}()
	wg.Wait()
}
