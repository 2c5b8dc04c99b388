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
			cfg.AdaptiveWarmup = 10
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

// TopK snapshots under the selector lock: hammer it against queries that
// drive selector switches (tiny warmup, shifting workload), under -race.
func TestRaceAdaptiveTopKDuringSelectorSwitches(t *testing.T) {
	db := testDB(t, 300)
	s, err := New(db, Config{
		N: 300, Alpha: 1, Beta: 2, Cap: 100 * time.Microsecond, Clock: vclock.Real{},
		AdaptiveDecayRates: []float64{1, 1.02, 1.05},
		AdaptiveWarmup:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
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
