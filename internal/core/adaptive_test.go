package core

import (
	"fmt"
	"testing"
	"time"
)

// warmSelector runs adaptiveWarmup one-tuple queries over the first n
// ids, so the adaptive selector is past its warmup and free to switch.
func warmSelector(t *testing.T, s *Shield, n int) {
	t.Helper()
	for i := 0; i < adaptiveWarmup; i++ {
		if _, _, err := s.Query("warm", fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, i%n)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	db := testDB(t, 10)
	if _, err := New(db, Config{
		Kind: ByUpdateRate, N: 10, Alpha: 1, C: 1,
		AdaptiveDecayRates: []float64{1, 1.01},
	}); err == nil {
		t.Fatal("adaptive + update-rate accepted")
	}
	if _, err := New(db, Config{
		N: 10, Alpha: 1, Beta: 1, Cap: time.Second,
		AdaptiveDecayRates: []float64{0.5},
	}); err == nil {
		t.Fatal("bad adaptive rate accepted")
	}
}

func TestAdaptiveShieldServesQueries(t *testing.T) {
	db := testDB(t, 100)
	clk := simClock()
	s, err := New(db, Config{
		N: 100, Alpha: 1, Beta: 2, Cap: time.Second, Clock: clk,
		AdaptiveDecayRates: []float64{1.0, 1.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cold: cap. Warm: cheap. Same contract as the fixed-rate shield.
	_, stats, err := s.Query("u", `SELECT * FROM items WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delay != time.Second {
		t.Fatalf("cold delay = %v", stats.Delay)
	}
	// Past the selector's warmup, so the hot quote comes from whichever
	// tracker it picked.
	for i := 0; i < adaptiveWarmup; i++ {
		if _, _, err := s.Query("u", `SELECT * FROM items WHERE id = 5`); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, _ = s.Query("u", `SELECT * FROM items WHERE id = 5`)
	if stats.Delay >= time.Second/10 {
		t.Fatalf("hot delay = %v", stats.Delay)
	}
}

func TestAdaptiveSwitchesOnShiftingWorkload(t *testing.T) {
	db := testDB(t, 2000)
	clk := simClock()
	s, err := New(db, Config{
		N: 2000, Alpha: 1, Beta: 2, Cap: time.Second, Clock: clk,
		AdaptiveDecayRates: []float64{1.0, 1.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveDecayRate(); got != 1.0 {
		t.Fatalf("initial active rate = %v", got)
	}
	// Popularity shifts every phase: the decaying tracker must win.
	for phase := 0; phase < 40; phase++ {
		hot := (phase * 37) % 1900
		for i := 0; i < 200; i++ {
			id := hot + i%3
			if _, _, err := s.Query("u", fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.ActiveDecayRate(); got != 1.05 {
		t.Fatalf("active rate on shifting workload = %v, want 1.05", got)
	}
}

func TestAdaptiveStaysOnStaticWorkload(t *testing.T) {
	db := testDB(t, 500)
	clk := simClock()
	s, err := New(db, Config{
		N: 500, Alpha: 1, Beta: 2, Cap: time.Second, Clock: clk,
		AdaptiveDecayRates: []float64{1.0, 1.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Static head: ids 0..4 dominate forever.
	for i := 0; i < 5000; i++ {
		id := (i * i) % 5
		if _, _, err := s.Query("u", fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ActiveDecayRate(); got != 1.0 {
		t.Fatalf("active rate on static workload = %v, want 1.0 (no decay)", got)
	}
}

func TestTopK(t *testing.T) {
	db := testDB(t, 50)
	s, _ := New(db, Config{N: 50, Alpha: 1, Beta: 1, Cap: time.Second, Clock: simClock()})
	for i := 0; i < 9; i++ {
		s.Query("u", `SELECT * FROM items WHERE id = 7`)
	}
	for i := 0; i < 4; i++ {
		s.Query("u", `SELECT * FROM items WHERE id = 3`)
	}
	s.Query("u", `SELECT * FROM items WHERE id = 1`)
	ids, counts := s.TopK(2)
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 3 {
		t.Fatalf("TopK ids = %v", ids)
	}
	if counts[0] != 9 || counts[1] != 4 {
		t.Fatalf("TopK counts = %v", counts)
	}
	// k beyond distinct ids.
	ids, _ = s.TopK(100)
	if len(ids) != 3 {
		t.Fatalf("TopK(100) = %v", ids)
	}
}
