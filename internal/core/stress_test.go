package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentQueriesAndWrites hammers one shield from many goroutines
// mixing reads and writes; afterwards the books must balance.
func TestConcurrentQueriesAndWrites(t *testing.T) {
	db := testDB(t, 200)
	s, err := New(db, Config{N: 200, Alpha: 1, Beta: 1, Cap: time.Millisecond, Clock: simClock()})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := (w*perWorker + i) % 200
				var err error
				if i%4 == 3 {
					_, _, err = s.Query(fmt.Sprintf("w%d", w),
						fmt.Sprintf(`UPDATE items SET payload = 'v%d' WHERE id = %d`, i, id))
				} else {
					_, _, err = s.Query(fmt.Sprintf("w%d", w),
						fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, id))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 3/4 of statements were reads; every read observed exactly one tuple.
	wantReads := int64(workers * perWorker * 3 / 4)
	if got := s.Tracker().Observations(); got != wantReads {
		t.Fatalf("observations = %d, want %d", got, wantReads)
	}
	wantWrites := int64(workers * perWorker / 4)
	if got := s.TuplesUpdated(); got != wantWrites {
		t.Fatalf("updates = %d, want %d", got, wantWrites)
	}
}

// TestConcurrentAdaptiveShield stresses the adaptive (multi-decay) path,
// which serializes tracker selection behind a shield-level mutex.
func TestConcurrentAdaptiveShield(t *testing.T) {
	db := testDB(t, 100)
	s, err := New(db, Config{
		N: 100, Alpha: 1, Beta: 1, Cap: time.Millisecond, Clock: simClock(),
		AdaptiveDecayRates: []float64{1.0, 1.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, _, err := s.Query("u", fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, i%100)); err != nil {
					t.Error(err)
					return
				}
				_ = s.ActiveDecayRate()
			}
		}(w)
	}
	wg.Wait()
	if got := s.Tracker().Observations(); got != 800 {
		t.Fatalf("observations = %d", got)
	}
}

// TestConcurrentRegistrationsRaceOneWinner: with a throttle, exactly one
// of many simultaneous registrations may win per interval.
func TestConcurrentRegistrationsRaceOneWinner(t *testing.T) {
	db := testDB(t, 10)
	s, err := New(db, Config{
		N: 10, Alpha: 1, Beta: 1, Cap: time.Millisecond, Clock: simClock(),
		RegistrationInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	won := 0
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.Register(fmt.Sprintf("id%d", w)); err == nil {
				mu.Lock()
				won++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if won != 1 {
		t.Fatalf("%d registrations won, want 1", won)
	}
}
