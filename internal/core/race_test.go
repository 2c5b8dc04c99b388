package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/detect"
	"repro/internal/vclock"
)

// TestRaceQueryCtxSaveCountsTopK races the paths that share the tracker
// and the delays reservoir and had never been exercised together:
// concurrent QueryCtx (some cancelled mid-delay), SaveCounts snapshots,
// and TopK rank scans, on one adaptive shield under -race.
func TestRaceQueryCtxSaveCountsTopK(t *testing.T) {
	db := testDB(t, 100)
	s, err := New(db, Config{
		// Real clock with a microscopic cap: delays are genuinely slept
		// (so cancellation can land mid-sleep) but the test stays fast.
		N: 100, Alpha: 1, Beta: 1, Cap: 200 * time.Microsecond, Clock: vclock.Real{},
		AdaptiveDecayRates: []float64{1, 1.05},
		QueryRate:          1e6, QueryBurst: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	warmSelector(t, s, 100)
	warm := s.Metrics().Counter("shield_queries_served_total").Value()

	const (
		queriers = 4
		perG     = 60
	)
	var wg sync.WaitGroup
	// Query workers: even iterations run to completion, odd ones get a
	// context that may expire mid-delay.
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sql := fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, (g*perG+i)%100)
				if i%2 == 0 {
					if _, _, err := s.QueryCtx(context.Background(), "u", sql); err != nil {
						t.Errorf("query: %v", err)
						return
					}
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
				s.QueryCtx(ctx, "u", sql) // cancellation is an expected outcome
				cancel()
			}
		}(g)
	}
	// Snapshot worker: SaveCounts exports the live tracker repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		store := counters.NewMapStore()
		for i := 0; i < 40; i++ {
			if err := s.SaveCounts(store); err != nil {
				t.Errorf("save: %v", err)
				return
			}
		}
	}()
	// Rank worker: TopK walks the tracker's order statistics.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			ids, countsOut := s.TopK(10)
			if len(ids) != len(countsOut) {
				t.Errorf("TopK lengths diverge: %d vs %d", len(ids), len(countsOut))
				return
			}
		}
	}()
	wg.Wait()

	served := s.Metrics().Counter("shield_queries_served_total").Value() - warm
	cancelled := s.Metrics().Counter("shield_queries_cancelled_total").Value()
	if served+cancelled != queriers*perG {
		t.Fatalf("served %d + cancelled %d != %d issued", served, cancelled, queriers*perG)
	}
	if served < queriers*perG/2 {
		t.Fatalf("served %d < the %d uncancellable queries issued", served, queriers*perG/2)
	}
	if s.Metrics().Gauge("shield_inflight_delays").Value() != 0 {
		t.Fatal("inflight gauge nonzero after quiescence")
	}
}

// TestRaceDetectionOn races the full detection path: concurrent
// principals scanning (sketch updates + escalation), clustering sweeps
// forced from another goroutine, suspects/gauge reads, and metrics
// exports. Eviction churn is raced in detect.TestDetectorConcurrent.
func TestRaceDetectionOn(t *testing.T) {
	db := testDB(t, 100)
	s, err := New(db, Config{
		N: 100, Alpha: 1, Beta: 1, Cap: 50 * time.Microsecond, Clock: vclock.Real{},
		Detect: &detect.Config{
			Policy: detect.EscalationPolicy{Grace: 0.10, Cap: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			identity := fmt.Sprintf("p%d", g)
			for i := 0; i < 40; i++ {
				lo := (g*7 + i*13) % 90
				sql := fmt.Sprintf(`SELECT * FROM items WHERE id >= %d AND id < %d`, lo, lo+10)
				if _, _, err := s.QueryCtx(context.Background(), identity, sql); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s.Detector().Recluster()
			s.Detector().Suspects(5)
			s.Metrics().Export()
		}
	}()
	wg.Wait()
	if n := s.Detector().TrackedPrincipals(); n != 6 {
		t.Fatalf("tracked %d principals, want the 6 scanners", n)
	}
}
