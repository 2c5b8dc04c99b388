package delay

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
)

// goldenCounts is the learned state core's TestGoldenPriceSequence
// restarts from: every third id of 2000, integer counts (heavy ties) next
// to fractional ones.
func goldenCounts() (ids []uint64, counts []float64) {
	rng := rand.New(rand.NewSource(20040831))
	for id := 0; id < 2000; id += 3 {
		ids = append(ids, uint64(id))
		c := float64(1 + rng.Intn(6))
		if id%7 == 0 {
			c += rng.Float64()
		}
		counts = append(counts, c)
	}
	return ids, counts
}

// A single-tuple quote and a batch of one are the same quote: both read
// the rank and the normaliser from one tracker state. Checked for seen
// ids, unseen ids, ids ranked past N (667 tracked, N = 100), fixed and
// learned fmax/rmax, before the first observation, while a stream of
// observations moves the ranks, and for an id whose count has decayed to
// zero but is still tracked: both paths price it at its rank.
func TestDelayEqualsDelayBatchOfOne(t *testing.T) {
	// Both policies price one tuple (Delay) and a batch (Policy).
	type pricer interface {
		Policy
		Delay(id uint64) time.Duration
	}
	for _, n := range []int{2000, 100} {
		for _, fixed := range []float64{0, 5} {
			makers := map[string]func(*counters.Decayed) pricer{
				"popularity": func(tr *counters.Decayed) pricer {
					p, err := NewPopularity(PopularityConfig{N: n, Alpha: 1, Beta: 0.5, Cap: time.Minute, Fmax: fixed}, tr)
					if err != nil {
						t.Fatal(err)
					}
					return p
				},
				"updaterate": func(tr *counters.Decayed) pricer {
					u, err := NewUpdateRate(UpdateRateConfig{N: n, Alpha: 1, C: 1e-4, Cap: time.Minute, Rmax: fixed}, tr)
					if err != nil {
						t.Fatal(err)
					}
					u.SetWindow(30)
					return u
				},
			}
			for name, mk := range makers {
				t.Run(fmt.Sprintf("%s/N=%d/fixed=%v", name, n, fixed), func(t *testing.T) {
					tr, err := counters.NewDecayed(1.01)
					if err != nil {
						t.Fatal(err)
					}
					p := mk(tr)
					check := func(when string) {
						t.Helper()
						for id := uint64(0); id < 2100; id++ {
							if one, batch := p.Delay(id), p.DelayBatch([]uint64{id}); one != batch {
								t.Fatalf("%s: Delay(%d) = %v, DelayBatch of it = %v", when, id, one, batch)
							}
						}
					}
					check("before the first observation")
					ids, counts := goldenCounts()
					if err := tr.Import(ids, counts); err != nil {
						t.Fatal(err)
					}
					check("after import")
					rng := rand.New(rand.NewSource(1))
					for round := 0; round < 20; round++ {
						lo := uint64(rng.Intn(2000))
						scan := make([]uint64, 1+rng.Intn(150))
						for i := range scan {
							scan[i] = lo + uint64(i)
						}
						tr.ObserveBatch(scan)
						check(fmt.Sprintf("after scan %d", round))
					}
				})
			}
		}
	}

	// At δ = 2 the increment passes the renormalisation threshold every
	// 333 ticks; four rescales by 1e-100 underflow a count of 1 to 0.
	tr, err := counters.NewDecayed(2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(1)
	for i := 0; i < 1400; i++ {
		tr.Observe(2)
	}
	if c, r := tr.Count(1), tr.Rank(1); c != 0 || r != 2 {
		t.Fatalf("id 1: count %v, rank %d; want a tracked id whose count underflowed to 0", c, r)
	}
	p, err := NewPopularity(PopularityConfig{N: 50, Alpha: 1, Beta: 1, Cap: time.Hour}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if one, batch, want := p.Delay(1), p.DelayBatch([]uint64{1}), p.DelayForRank(2); one != want || batch != want {
		t.Fatalf("tracked id with count 0: Delay %v, DelayBatch %v, rank-2 price %v", one, batch, want)
	}
}

// ExtractionDelay reads the normaliser once, and at a quiescent state
// still equals the sum of DelayForRank over 1..N.
func TestUpdateRateExtractionDelayIsSumOfRanks(t *testing.T) {
	tr, err := counters.NewDecayed(1)
	if err != nil {
		t.Fatal(err)
	}
	ids, counts := goldenCounts()
	if err := tr.Import(ids, counts); err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdateRate(UpdateRateConfig{N: 2000, Alpha: 1, C: 1e-4, Cap: time.Minute}, tr)
	if err != nil {
		t.Fatal(err)
	}
	u.SetWindow(30)
	var sum float64
	for i := 1; i <= 2000; i++ {
		sum += u.DelayForRank(i).Seconds()
	}
	if got, want := u.ExtractionDelay(), SecondsToDuration(sum); got != want {
		t.Fatalf("ExtractionDelay = %v, sum over ranks = %v", got, want)
	}
}

// DelayBatch against ObserveBatch on one tracker, under -race: a batch
// quote is priced from one tracker state, so it must equal the per-id sum
// at some state between two observes. The observer applies a seeded
// sequence of batches and publishes how many are done; a quoter brackets
// each quote with that count, which bounds the states it can have seen;
// a replay of the same sequence, single-threaded, says what each state
// charged.
func TestDelayBatchConcurrentWithObserveBatch(t *testing.T) {
	const observes, quoters, quotesEach = 3000, 4, 1000
	newTracker := func() (*counters.Decayed, *Popularity) {
		tr, err := counters.NewDecayed(1.0001)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPopularity(PopularityConfig{N: 500, Alpha: 1, Beta: 2, Cap: 10 * time.Second}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return tr, p
	}
	rng := rand.New(rand.NewSource(1))
	stream := make([][]uint64, observes)
	for i := range stream {
		stream[i] = []uint64{uint64(rng.Intn(200)), uint64(rng.Intn(200))}
	}
	batches := make([][]uint64, 8)
	for i := range batches {
		batches[i] = make([]uint64, 1+rng.Intn(16))
		for j := range batches[i] {
			batches[i][j] = uint64(rng.Intn(400)) // half the range never observed
		}
	}

	tr, p := newTracker()
	var done, quoted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, ids := range stream {
			// Paced by the quoters, so the two interleave to the end.
			for quoted.Load() < int64(k) {
				runtime.Gosched()
			}
			tr.ObserveBatch(ids)
			done.Store(int64(k + 1))
		}
	}()
	type quote struct {
		batch    int
		from, to int64 // states the quote can have been priced at
		got      time.Duration
	}
	quotes := make([][]quote, quoters)
	for q := range quotes {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(q + 10)))
			for i := 0; i < quotesEach; i++ {
				b := rng.Intn(len(batches))
				from := done.Load()
				got := p.DelayBatch(batches[b])
				// An observe may have been applied and not yet published.
				to := min(done.Load()+1, observes)
				quotes[q] = append(quotes[q], quote{b, from, to, got})
				quoted.Add(1)
			}
		}(q)
	}
	wg.Wait()

	// charged[s][b] is the per-id sum for batch b after s observes.
	tr, p = newTracker()
	charged := make([][]time.Duration, observes+1)
	for s := range charged {
		if s > 0 {
			tr.ObserveBatch(stream[s-1])
		}
		charged[s] = make([]time.Duration, len(batches))
		for b, ids := range batches {
			for _, id := range ids {
				charged[s][b] = satAdd(charged[s][b], p.Delay(id))
			}
		}
	}
	for _, qs := range quotes {
	next:
		for _, q := range qs {
			for s := q.from; s <= q.to; s++ {
				if charged[s][q.batch] == q.got {
					continue next
				}
			}
			t.Fatalf("batch %d quoted %v between observes %d and %d: no state there charges that", q.batch, q.got, q.from, q.to)
		}
	}
}
