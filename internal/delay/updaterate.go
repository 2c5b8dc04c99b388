package delay

import (
	"errors"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/counters"
)

// UpdateRateConfig parameterizes the §3 policy that keys delay to data
// change rather than access popularity. It applies when the query load is
// uniform but updates are skewed.
type UpdateRateConfig struct {
	// N is the dataset size in tuples.
	N int
	// Alpha is the (assumed or estimated) Zipf parameter of the update
	// rate distribution.
	Alpha float64
	// C is the paper's constant c in Eq 9; larger values stretch all
	// delays and raise the guaranteed stale fraction (Eq 12) at the cost
	// of longer legitimate-user waits.
	C float64
	// Cap bounds the delay for any single retrieval. Zero means uncapped.
	Cap time.Duration
	// Rmax fixes the update rate of the most frequently updated item, in
	// updates per second. When zero it is learned from the tracker as the
	// decayed update count of the rank-1 item divided by the observation
	// window the caller maintains via SetWindow.
	Rmax float64
}

func (c UpdateRateConfig) validate() error {
	switch {
	case c.N < 1:
		return errors.New("delay: N < 1")
	case c.Alpha < 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0):
		return errors.New("delay: invalid alpha")
	case c.C <= 0 || math.IsNaN(c.C) || math.IsInf(c.C, 0):
		return errors.New("delay: c must be positive and finite")
	case c.Cap < 0:
		return errors.New("delay: negative cap")
	case c.Rmax < 0 || math.IsNaN(c.Rmax):
		return errors.New("delay: invalid rmax")
	}
	return nil
}

// UpdateRate is the §3 policy: d(i) = (c/N) · i^α / rmax (Eq 9), where i
// is the tuple's rank by update frequency (rank 1 = most updated) and
// rmax the update rate of the most updated item. Items that stay fresh
// longer take longer to retrieve. Never-updated tuples rank N.
type UpdateRate struct {
	cfg UpdateRateConfig
	rankSource
	// window is the observation span in seconds (float64 bits), stored
	// atomically: SetWindow runs on the write path while concurrent
	// SELECTs read it through rmax.
	window atomic.Uint64
}

// NewUpdateRate returns an update-rate policy. tracker must be fed one
// observation per tuple update (RecordUpdate does this).
func NewUpdateRate(cfg UpdateRateConfig, tracker *counters.Decayed) (*UpdateRate, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if tracker == nil {
		return nil, errors.New("delay: nil tracker")
	}
	return &UpdateRate{cfg: cfg, rankSource: rankSource{tracker: tracker}}, nil
}

// Config returns the policy's configuration.
func (u *UpdateRate) Config() UpdateRateConfig { return u.cfg }

// Tracker returns the underlying update tracker.
func (u *UpdateRate) Tracker() *counters.Decayed { return u.tracker }

// RecordUpdate notes that tuple id changed value.
func (u *UpdateRate) RecordUpdate(id uint64) { u.tracker.ObserveNoDecay(id) }

// SetWindow tells the policy how many seconds of updates the tracker has
// seen, so a learned rmax can be expressed in updates per second.
func (u *UpdateRate) SetWindow(seconds float64) {
	u.window.Store(math.Float64bits(seconds))
}

func (u *UpdateRate) rmax() float64 {
	if u.cfg.Rmax > 0 {
		return u.cfg.Rmax // skip the tracker lock
	}
	return u.scaleFor(u.tracker.MaxCount())
}

// Delay returns one tuple's delay: the rank and rmax are read from one
// tracker state, as DelayBatch reads them.
func (u *UpdateRate) Delay(id uint64) time.Duration {
	return delayOne(u, &u.rankSource, id)
}

// DelayForRank returns the delay for the tuple at the given update-rate
// rank.
func (u *UpdateRate) DelayForRank(rank int) time.Duration {
	return u.delayAt(rank, u.rmax())
}

// DelayBatch implements Policy: one tracker lock acquisition prices the
// whole batch.
func (u *UpdateRate) DelayBatch(ids []uint64) time.Duration {
	return delayBatch(u, &u.rankSource, ids)
}

// scaleFor implements rankPricer: rmax, fixed or learned over the window.
func (u *UpdateRate) scaleFor(maxCount float64) float64 {
	if u.cfg.Rmax > 0 {
		return u.cfg.Rmax
	}
	window := math.Float64frombits(u.window.Load())
	if window <= 0 {
		return 0
	}
	return maxCount / window
}

// priceAt implements rankPricer.
func (u *UpdateRate) priceAt(rank int, rmax float64) time.Duration {
	return u.delayAt(clampRank(rank, u.cfg.N), rmax)
}

// capRank implements rankPricer, from Eq 9 solved for the rank whose
// delay is the cap: rank^α = cap · N · rmax / c.
func (u *UpdateRate) capRank(rmax float64) int {
	return capRankNear(u, rmax, u.cfg.N, u.cfg.Cap > 0,
		math.Pow(u.cfg.Cap.Seconds()*float64(u.cfg.N)*rmax/u.cfg.C, 1/u.cfg.Alpha))
}

func (u *UpdateRate) delayAt(rank int, rmax float64) time.Duration {
	if rank < 1 {
		rank = 1
	}
	if rmax <= 0 {
		if u.cfg.Cap > 0 {
			return u.cfg.Cap
		}
		return maxDuration
	}
	sec := u.cfg.C * math.Pow(float64(rank), u.cfg.Alpha) / (float64(u.cfg.N) * rmax)
	d := SecondsToDuration(sec)
	if u.cfg.Cap > 0 && d > u.cfg.Cap {
		return u.cfg.Cap
	}
	return d
}

// ExtractionDelay returns the total delay charged to a full sequential
// extraction of the N-tuple dataset under the current state.
func (u *UpdateRate) ExtractionDelay() time.Duration {
	rmax := u.rmax()
	var total float64
	for i := 1; i <= u.cfg.N; i++ {
		total += u.delayAt(i, rmax).Seconds()
	}
	return SecondsToDuration(total)
}

// PredictedStaleFraction is Eq 12: the fraction of the dataset guaranteed
// stale by the time a full extraction completes,
//
//	Smax ≈ (cmax / (1+α))^(1/α),
//
// clamped to [0, 1]. cmax is the delay constant actually in force (the
// policy's C) and alpha the update-skew parameter.
func PredictedStaleFraction(cmax, alpha float64) float64 {
	if alpha <= 0 || cmax <= 0 {
		return 0
	}
	s := math.Pow(cmax/(1+alpha), 1/alpha)
	if s > 1 {
		return 1
	}
	return s
}
