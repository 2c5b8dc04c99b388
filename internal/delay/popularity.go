package delay

import (
	"errors"
	"math"
	"time"

	"repro/internal/counters"
)

// PopularityConfig parameterizes the access-popularity policy of §2.
type PopularityConfig struct {
	// N is the dataset size in tuples. Ranks of never-observed tuples
	// default to N (maximally unpopular).
	N int
	// Alpha is the (assumed or estimated) Zipf parameter of the
	// legitimate workload.
	Alpha float64
	// Beta is the penalty exponent; see TuneBeta.
	Beta float64
	// Cap is the maximum delay dmax added to any single retrieval (§2.2).
	// Zero means uncapped (the "simple scheme" of §2.1).
	Cap time.Duration
	// Fmax fixes the effective request count of the most popular item.
	// When zero, it is learned from the tracker as the decayed count of
	// the current rank-1 item — the paper's implementation choice, which
	// is what makes stronger decay raise all delays (Table 3, Table 4).
	Fmax float64
}

func (c PopularityConfig) validate() error {
	switch {
	case c.N < 1:
		return errors.New("delay: N < 1")
	case c.Alpha < 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0):
		return errors.New("delay: invalid alpha")
	case c.Beta < 0 || math.IsNaN(c.Beta) || math.IsInf(c.Beta, 0):
		return errors.New("delay: invalid beta")
	case c.Cap < 0:
		return errors.New("delay: negative cap")
	case c.Fmax < 0 || math.IsNaN(c.Fmax):
		return errors.New("delay: invalid fmax")
	}
	return nil
}

// Popularity is the §2 policy: delay inversely related to learned access
// popularity. It is safe for concurrent use (the underlying tracker
// serializes access).
type Popularity struct {
	cfg PopularityConfig
	rankSource
}

// NewPopularity returns a popularity policy reading ranks from tracker.
// The tracker is shared: the caller (normally the Gate or Shield) is
// responsible for Observing accesses on it.
func NewPopularity(cfg PopularityConfig, tracker *counters.Decayed) (*Popularity, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if tracker == nil {
		return nil, errors.New("delay: nil tracker")
	}
	return &Popularity{cfg: cfg, rankSource: rankSource{tracker: tracker}}, nil
}

// Config returns the policy's configuration.
func (p *Popularity) Config() PopularityConfig { return p.cfg }

// Tracker returns the underlying access tracker.
func (p *Popularity) Tracker() *counters.Decayed { return p.tracker }

// DelayBatch implements Policy: the whole batch is priced from one
// tracker state, under one lock acquisition.
func (p *Popularity) DelayBatch(ids []uint64) time.Duration {
	return delayBatch(p, &p.rankSource, ids)
}

// scaleFor implements rankPricer: fmax, fixed or learned.
func (p *Popularity) scaleFor(maxCount float64) float64 {
	if p.cfg.Fmax > 0 {
		return p.cfg.Fmax
	}
	return maxCount
}

// priceAt implements rankPricer.
func (p *Popularity) priceAt(rank int, fmax float64) time.Duration {
	return p.delayAt(clampRank(rank, p.cfg.N), fmax)
}

// Delay returns one tuple's delay. The rank of a never-observed tuple is
// N; with no observations at all (fmax unknown) every delay is the cap,
// which is exactly the paper's start-up transient behaviour. The rank and
// fmax are read from one tracker state, as DelayBatch reads them.
func (p *Popularity) Delay(id uint64) time.Duration {
	return delayOne(p, &p.rankSource, id)
}

// DelayForRank returns the delay the policy would currently assign to the
// tuple of the given popularity rank.
func (p *Popularity) DelayForRank(rank int) time.Duration {
	return p.delayAt(rank, p.fmax())
}

func (p *Popularity) fmax() float64 {
	if p.cfg.Fmax > 0 {
		return p.cfg.Fmax
	}
	// Learned: decayed count of the most popular item.
	return p.tracker.MaxCount()
}

func (p *Popularity) delayAt(rank int, fmax float64) time.Duration {
	return SecondsToDuration(p.delaySecondsAt(rank, fmax))
}

func (p *Popularity) delaySecondsAt(rank int, fmax float64) float64 {
	if rank < 1 {
		rank = 1
	}
	if fmax <= 0 {
		// Nothing learned yet: charge the cap (uncapped policies charge
		// effectively forever, so configure a cap when learning online).
		if p.cfg.Cap > 0 {
			return p.cfg.Cap.Seconds()
		}
		return maxDuration.Seconds()
	}
	sec := math.Pow(float64(rank), p.cfg.Alpha+p.cfg.Beta) / (float64(p.cfg.N) * fmax)
	if p.cfg.Cap > 0 && sec > p.cfg.Cap.Seconds() {
		return p.cfg.Cap.Seconds()
	}
	return sec
}

// DelaySeconds returns the exact delay for id in float seconds, without
// the sub-nanosecond truncation of time.Duration. Analysis code uses it
// where delays can be astronomically small (very hot tuples under huge
// fmax).
func (p *Popularity) DelaySeconds(id uint64) float64 {
	rank, maxCount := p.tracker.RankMax(id)
	return p.delaySecondsAt(clampRank(rank, p.cfg.N), p.scaleFor(maxCount))
}

// capRank implements rankPricer, from Eq 5's closed form
// rank^(α+β) = cap · N · fmax.
func (p *Popularity) capRank(fmax float64) int {
	return capRankNear(p, fmax, p.cfg.N, p.cfg.Cap > 0,
		math.Pow(p.cfg.Cap.Seconds()*float64(p.cfg.N)*fmax, 1/(p.cfg.Alpha+p.cfg.Beta)))
}

// CapRank returns M, the lowest rank whose delay is the cap (Eq 5) at the
// current fmax: the rank the quote path stops ranking at. It returns N if
// no rank caps (or the policy is uncapped).
func (p *Popularity) CapRank() int {
	return min(p.capRank(p.fmax()), p.cfg.N)
}

// ExtractionDelay returns the total delay an adversary faces to retrieve
// the entire dataset of N tuples under the current learned state (Eq 6):
// the sum of per-rank delays with the cap applied. Tuples beyond the
// observed set take rank ≥ observed count and are charged as the tail.
func (p *Popularity) ExtractionDelay() time.Duration {
	fmax := p.fmax()
	var total float64
	for i := 1; i <= p.cfg.N; i++ {
		total += p.delayAt(i, fmax).Seconds()
	}
	return SecondsToDuration(total)
}
