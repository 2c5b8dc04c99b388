package counters

import (
	"math/rand"
	"slices"
	"sync"
)

// Synopsis is a bounded-memory approximate counter modeled on the
// counting samples of Gibbons & Matias (SIGMOD 1998), which the paper
// cites (§4.4) as a way to shrink count-maintenance overhead further. It
// keeps exact counts for a sampled subset of ids; ids enter the sample
// with probability 1/tau, and when the sample outgrows its capacity, tau
// is raised and existing entries are thinned so the inclusion probability
// stays consistent.
//
// Estimate returns an (approximately) unbiased estimate of an id's true
// count: a tracked id with sampled count c is estimated as c + tau − 1,
// accounting for the expected number of occurrences before the one that
// put it in the sample. Synopsis is safe for concurrent use.
type Synopsis struct {
	mu       sync.Mutex
	capacity int
	tau      float64
	growth   float64
	counts   map[uint64]float64
	rng      *rand.Rand
	total    int64
}

// NewSynopsis returns a synopsis holding at most capacity tracked ids.
// growth (> 1) is the factor by which the sampling threshold tau rises on
// overflow; 1.5 is a reasonable default.
func NewSynopsis(capacity int, growth float64, seed int64) *Synopsis {
	if capacity < 1 {
		capacity = 1
	}
	if growth <= 1 {
		growth = 1.5
	}
	return &Synopsis{
		capacity: capacity,
		tau:      1,
		growth:   growth,
		counts:   make(map[uint64]float64),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Observe records one occurrence of id.
func (s *Synopsis) Observe(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if _, ok := s.counts[id]; ok {
		s.counts[id]++
		return
	}
	if s.rng.Float64() < 1/s.tau {
		s.counts[id] = 1
		if len(s.counts) > s.capacity {
			s.thinLocked()
		}
	}
}

// thinLocked raises tau and re-samples existing entries so that each
// retained id remains in the sample with probability 1/tau under the new
// threshold. Following Gibbons & Matias: for each entry, the first unit
// survives with probability tau/tau'; if it dies, subsequent units each
// survive with probability 1/tau' until one survives or the count is
// exhausted (then the entry is evicted).
func (s *Synopsis) thinLocked() {
	for len(s.counts) > s.capacity {
		oldTau := s.tau
		s.tau *= s.growth
		// Visit ids in sorted order: the draws come from a seeded rng, and map
		// order would make a seeded synopsis irreproducible.
		ids := make([]uint64, 0, len(s.counts))
		for id := range s.counts {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			c := s.counts[id]
			if s.rng.Float64() < oldTau/s.tau {
				continue // survives intact
			}
			c--
			for c > 0 && s.rng.Float64() >= 1/s.tau {
				c--
			}
			if c <= 0 {
				delete(s.counts, id)
			} else {
				s.counts[id] = c
			}
		}
	}
}

// Estimate returns the estimated occurrence count of id (0 if untracked).
func (s *Synopsis) Estimate(id uint64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counts[id]
	if !ok {
		return 0
	}
	return c + s.tau - 1
}

// Tracked returns the number of ids currently in the sample.
func (s *Synopsis) Tracked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.counts)
}

// Tau returns the current sampling threshold.
func (s *Synopsis) Tau() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tau
}

// Total returns the total number of observations presented.
func (s *Synopsis) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
