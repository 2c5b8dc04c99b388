// Package core assembles the paper's defense into a single front door:
// the Shield wraps the embedded relational engine with access counting
// (§2.3), popularity- or update-rate-keyed delay (§2, §3), per-principal
// and subnet-aggregated rate limiting, and a registration throttle
// (§2.4), plus a count of the tuples writes changed (TuplesUpdated).
// Staleness (§3) is not tracked per tuple: it is measured by re-reading
// extracted rows.
//
// Every query enters through Shield.Query: the statement runs against the
// engine, the returned tuples are priced by the delay policy, the charge
// goes on its principal's clock and the shield sleeps until it ends (on a
// simulated clock in experiments), the access counts are updated, and
// only then does the result leave the building.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/delay"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// ErrRateLimited is returned when a principal exceeds its query rate.
var ErrRateLimited = errors.New("core: rate limited")

// ErrRegistrationThrottled is returned when a new identity cannot be
// registered yet.
var ErrRegistrationThrottled = errors.New("core: registration throttled")

// WaitError is a refusal that says when to come back: ErrRateLimited
// with the wait until the principal's bucket holds a token again, or
// ErrRegistrationThrottled with the wait for the next slot. The front
// door answers it with a 429 whose Retry-After is Wait.
type WaitError struct {
	Err  error // wraps the sentinel
	Wait time.Duration
}

func (e *WaitError) Error() string { return e.Err.Error() }
func (e *WaitError) Unwrap() error { return e.Err }

// NewLimiter returns the per-principal query limiter a front door admits
// through: rate queries/second with the given burst (at least 1), or nil,
// no limit, unless rate > 0. A shield builds one from Config.QueryRate,
// the cluster router one for its own door.
func NewLimiter(rate, burst float64, clock vclock.Clock) (*ratelimit.IdentityLimiter, error) {
	if !(rate > 0) {
		return nil, nil
	}
	return ratelimit.NewIdentityLimiter(rate, max(burst, 1), limiterPrincipalCap, clock)
}

// Admit spends one of principal's tokens at lim, or refuses with
// ErrRateLimited carrying the wait until its bucket refills. A nil lim
// admits everyone.
func Admit(lim *ratelimit.IdentityLimiter, principal string) error {
	if lim == nil || lim.Allow(principal) {
		return nil
	}
	return &WaitError{fmt.Errorf("%w: principal %q", ErrRateLimited, principal), lim.RetryAfter(principal)}
}

// ErrDegraded is returned for write statements while the shield is in
// degraded mode: a storage-layer I/O failure has been observed, so
// mutations are refused rather than risk divergence between the heap
// and the log, while reads — priced entirely from the in-memory
// counters — keep flowing, delays and all. The front door maps it to
// HTTP 503.
var ErrDegraded = errors.New("core: shield degraded: persistence is failing, writes are refused")

// ErrNotWriter is returned for a non-SELECT statement from a principal
// outside Config.Writers, before the statement executes. A write is a
// role, not a free probe: an UPDATE or DELETE reports how many rows its
// predicate matched, and that answer is not charged. The front door maps
// it to HTTP 403.
var ErrNotWriter = errors.New("core: principal may not write")

// ErrPrincipalBusy is returned for a SELECT from a principal that
// already has delay.PrincipalWaitCap statements admitted, before the
// statement executes. One principal's charges are served one after
// another on its clock, so more waiting queries would buy it nothing but
// held goroutines. The front door maps it to HTTP 429.
var ErrPrincipalBusy = errors.New("core: principal has too many queries waiting")

// PolicyKind selects how delays are keyed.
type PolicyKind int

// Available policy kinds.
const (
	// ByPopularity keys delay to access popularity (§2); it requires
	// skewed access patterns.
	ByPopularity PolicyKind = iota + 1
	// ByUpdateRate keys delay to update rate (§3); it works even with
	// uniform access patterns, provided updates are skewed.
	ByUpdateRate
)

// limiterPrincipalCap bounds the rate limiter's memory: past it the
// limiter forgets the principal holding the most tokens.
const limiterPrincipalCap = 65536

// NarrowCandidates is t, the largest candidate set a SELECT can have and
// still be narrow. The candidate set is the primary-index entries its key
// conjuncts and partition filter admit. A narrow SELECT is charged every
// candidate it read (engine.Prepared.ExamineUpTo): the rows a conjunct on
// another column rejected and the rows sorted past its LIMIT decide its
// reply too. A wider one is charged what it returns.
const NarrowCandidates = 64

// adaptiveWarmup is how many observed tuples the adaptive selector
// serves from the first decay rate before its scores may switch it.
const adaptiveWarmup = 1000

// Config parameterizes a Shield.
type Config struct {
	// Kind selects the delay policy. Default ByPopularity.
	Kind PolicyKind
	// N is the dataset size the delay formulas use. Required.
	N int
	// Alpha is the assumed or estimated skew parameter.
	Alpha float64
	// Beta is the popularity policy's penalty exponent (ByPopularity).
	Beta float64
	// C is the update-rate policy's delay constant (ByUpdateRate).
	C float64
	// Cap bounds any single tuple's delay (dmax). Strongly recommended;
	// without it cold tuples are delayed effectively forever.
	Cap time.Duration
	// DecayRate is the access-count decay δ ≥ 1 (1 = no decay).
	DecayRate float64
	// AdaptiveDecayRates, when non-empty, tracks counts under every
	// listed rate simultaneously and serves delays from whichever tracker
	// best predicts the live request stream — §2.3's answer to unknown
	// popularity dynamics ("one can simultaneously track counts with more
	// than one decay term, switching to the appropriate set as the
	// request pattern warrants"); the first 1,000 observed tuples are
	// served by the first rate. Overrides DecayRate. ByPopularity only.
	AdaptiveDecayRates []float64
	// Clock defaults to the wall clock; experiments inject a simulated
	// clock so adversary delays accumulate instantly.
	Clock vclock.Clock

	// QueryRate/QueryBurst enable per-principal rate limiting when
	// QueryRate > 0.
	QueryRate  float64
	QueryBurst float64
	// SubnetAggregation treats all addresses in one /24 (IPv4) or /48
	// (IPv6) as a single principal, the paper's Sybil defense.
	SubnetAggregation bool
	// RegistrationInterval enables the one-identity-per-interval
	// registration throttle when positive.
	RegistrationInterval time.Duration

	// PriceCacheSize is ignored: the price cache it sized is gone
	// (DESIGN.md §9) and every quote reads the rank index. The field
	// exists only so bench/workload.go (frozen by BENCHMARK.json) keeps
	// compiling and goes with the next benchmark PR.
	PriceCacheSize int

	// Writers, when non-nil, is the set of identities whose non-SELECT
	// statements execute; anyone else's fails with ErrNotWriter. Nil lets
	// every identity write.
	Writers map[string]bool

	// Detect, when non-nil, enables the extraction detector: every
	// SELECT's returned tuple ids feed per-principal coverage sketches,
	// and the escalation multiplier they produce scales the policy delay
	// at charge time (DESIGN.md §10). A zero CatalogSize inherits N.
	Detect *detect.Config
}

func (c *Config) fill() error {
	if c.Kind == 0 {
		c.Kind = ByPopularity
	}
	if c.N < 1 {
		return errors.New("core: config N < 1")
	}
	if c.DecayRate == 0 {
		c.DecayRate = 1
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	if c.Kind == ByUpdateRate && c.C == 0 {
		c.C = 1
	}
	if len(c.AdaptiveDecayRates) > 0 && c.Kind != ByPopularity {
		return errors.New("core: adaptive decay applies to the popularity policy only")
	}
	return nil
}

// QueryStats describes what one query cost.
type QueryStats struct {
	// Delay is the total pause imposed before results were released.
	Delay time.Duration
	// Tuples is the number of tuples the query returned (and was charged
	// for).
	Tuples int
}

// Shield is the delay-defended front door to a database. It is safe for
// concurrent use.
type Shield struct {
	cfg       Config
	db        *engine.Database
	tracker   *counters.Decayed
	multi     *counters.MultiDecay // non-nil in adaptive mode
	multiMu   sync.Mutex           // serializes MultiDecay.Observe/Active
	adaptive  *adaptivePolicy
	updPolicy *delay.UpdateRate
	gate      *delay.Gate
	limiter   *ratelimit.IdentityLimiter
	registrar *ratelimit.RegistrationThrottle
	detector  *detect.Detector // nil unless Config.Detect set
	delays    *stats.Reservoir
	started   time.Time
	met       shieldMetrics
	// observeLocks counts serialization-section entries on the observe
	// path — one per charged query batch, not one per tuple. The
	// regression test pins this down so per-tuple locking cannot creep
	// back into the hot path.
	observeLocks atomic.Int64
	// degraded latches when a storage I/O failure is observed; cause
	// holds the first triggering error's message for /healthz. Cleared
	// only by an explicit operator ClearDegraded.
	degraded      atomic.Bool
	degradedCause atomic.Pointer[string]
}

// shieldMetrics is the shield's operational instrumentation, exported as
// JSON through Metrics().Handler() (the server mounts it at /metrics).
type shieldMetrics struct {
	registry *metrics.Registry
	// served counts SELECTs whose full delay was paid; cancelled counts
	// SELECTs whose sleep was cut short by context cancellation or
	// deadline (their tokens and observations are charged regardless).
	served    *metrics.Counter
	cancelled *metrics.Counter
	writes    *metrics.Counter
	tuples    *metrics.Counter
	// updated counts the tuples write statements changed in place or
	// removed: the keys every UPDATE and DELETE affected.
	updated *metrics.Counter
}

// adaptivePolicy serves delays from whichever tracker the multi-decay
// selector currently trusts.
type adaptivePolicy struct {
	shield *Shield
	pols   []delay.Policy // one per tracker, same order as multi.Trackers()
}

// DelayBatch implements delay.Policy: the active tracker index is
// resolved under multiMu once per batch, not once per tuple — a
// 10k-tuple SELECT costs one lock round-trip instead of 10k — and the
// batch is priced through the active tracker's policy.
func (a *adaptivePolicy) DelayBatch(ids []uint64) time.Duration {
	a.shield.multiMu.Lock()
	_, idx := a.shield.multi.Active()
	a.shield.multiMu.Unlock()
	return a.pols[idx].DelayBatch(ids)
}

// New wraps db in a Shield.
func New(db *engine.Database, cfg Config) (*Shield, error) {
	if db == nil {
		return nil, errors.New("core: nil database")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	tracker, err := counters.NewDecayed(cfg.DecayRate)
	if err != nil {
		return nil, err
	}
	s := &Shield{
		cfg:     cfg,
		db:      db,
		tracker: tracker,
		delays:  stats.NewReservoir(4096, 1),
		started: cfg.Clock.Now(),
	}

	var policy delay.Policy
	switch cfg.Kind {
	case ByPopularity:
		if len(cfg.AdaptiveDecayRates) > 0 {
			multi, err := counters.NewMultiDecay(cfg.AdaptiveDecayRates, 0.995, adaptiveWarmup)
			if err != nil {
				return nil, err
			}
			s.multi = multi
			ap := &adaptivePolicy{shield: s}
			for _, tr := range multi.Trackers() {
				p, err := delay.NewPopularity(delay.PopularityConfig{
					N: cfg.N, Alpha: cfg.Alpha, Beta: cfg.Beta, Cap: cfg.Cap,
				}, tr)
				if err != nil {
					return nil, err
				}
				ap.pols = append(ap.pols, p)
			}
			s.adaptive = ap
			policy = ap
			break
		}
		p, err := delay.NewPopularity(delay.PopularityConfig{
			N: cfg.N, Alpha: cfg.Alpha, Beta: cfg.Beta, Cap: cfg.Cap,
		}, tracker)
		if err != nil {
			return nil, err
		}
		policy = p
	case ByUpdateRate:
		upd, err := counters.NewDecayed(cfg.DecayRate)
		if err != nil {
			return nil, err
		}
		u, err := delay.NewUpdateRate(delay.UpdateRateConfig{
			N: cfg.N, Alpha: cfg.Alpha, C: cfg.C, Cap: cfg.Cap,
		}, upd)
		if err != nil {
			return nil, err
		}
		s.updPolicy = u
		policy = u
	default:
		return nil, fmt.Errorf("core: unknown policy kind %d", cfg.Kind)
	}

	// Charges reach the learner through one batch observer: one
	// serialization-section entry per query (tracked in observeLocks)
	// instead of one per returned tuple.
	observe := func(ids []uint64) {
		s.observeLocks.Add(1)
		tracker.ObserveBatch(ids)
	}
	if s.multi != nil {
		observe = func(ids []uint64) {
			s.observeLocks.Add(1)
			s.multiMu.Lock()
			s.multi.ObserveBatch(ids)
			s.multiMu.Unlock()
		}
	}
	gate, err := delay.NewGate(policy, cfg.Clock, observe)
	if err != nil {
		return nil, err
	}
	s.gate = gate

	reg := metrics.NewRegistry()
	s.met = shieldMetrics{
		registry:  reg,
		served:    reg.Counter("shield_queries_served_total"),
		cancelled: reg.Counter("shield_queries_cancelled_total"),
		writes:    reg.Counter("shield_write_statements_total"),
		tuples:    reg.Counter("shield_tuples_charged_total"),
		updated:   reg.Counter("shield_tuples_updated_total"),
	}
	// Rejection counters exist (at zero) even when the corresponding
	// defense is off, so dashboards see a stable schema.
	reg.Counter("shield_rate_limit_rejections_total")
	reg.Counter("shield_registration_rejections_total")
	// Degraded-mode instruments: the gauge is the alerting signal, the
	// counters record how often persistence failed over and how many
	// writes the failure turned away.
	reg.Counter("shield_degraded_entries_total")
	reg.Counter("shield_degraded_write_rejections_total")
	reg.GaugeFunc("shield_degraded", func() float64 {
		if s.degraded.Load() {
			return 1
		}
		return 0
	})
	gate.Instrument(
		reg.Gauge("shield_inflight_delays"),
		reg.Histogram("shield_query_delay_seconds", metrics.DefaultDelayBuckets()),
		// Cancelled charges get their own histogram so total imposed
		// delay is fully accounted even when adversaries hang up early,
		// while staying distinguishable from served-query latency.
		reg.Histogram("shield_query_delay_cancelled_seconds", metrics.DefaultDelayBuckets()),
	)
	reg.GaugeFunc("shield_tracker_size", func() float64 { return float64(s.Tracker().Len()) })
	// A capped policy lets the tracker's rank index keep positions only
	// below its horizon (internal/ostree): how many ids hold one, and how
	// often the horizon was set, cut back, rebuilt or dropped.
	reg.GaugeFunc("shield_tracker_ranked", func() float64 { return float64(s.Tracker().Ranked()) })
	reg.GaugeFunc("shield_tracker_horizon_resets_total", func() float64 {
		return float64(s.Tracker().HorizonResets())
	})
	if s.updPolicy != nil {
		reg.GaugeFunc("shield_update_tracker_size", func() float64 {
			return float64(s.updPolicy.Tracker().Len())
		})
	}

	// Detection instruments exist (at zero) even with the detector off,
	// matching the rejection-counter convention above.
	escalations := reg.Counter("shield_detect_escalations_total")
	// What a clustering sweep costs here: it runs on the request that
	// crosses the batch count, so this is latency some query pays.
	sweeps := reg.Counter("shield_detect_sweeps_total")
	sweepSeconds := reg.Histogram("shield_detect_sweep_seconds",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1})
	reg.GaugeFunc("shield_detect_tracked_principals", func() float64 {
		if s.detector == nil {
			return 0
		}
		return float64(s.detector.TrackedPrincipals())
	})
	reg.GaugeFunc("shield_detect_sketch_bytes", func() float64 {
		if s.detector == nil {
			return 0
		}
		return float64(s.detector.SketchBytes())
	})
	reg.GaugeFunc("shield_detect_coalitions", func() float64 {
		if s.detector == nil {
			return 0
		}
		return float64(s.detector.Coalitions())
	})
	reg.GaugeFunc("shield_detect_max_coverage", func() float64 {
		if s.detector == nil {
			return 0
		}
		return s.detector.MaxCoverage()
	})
	if cfg.Detect != nil {
		dcfg := *cfg.Detect
		if dcfg.CatalogSize == 0 {
			dcfg.CatalogSize = cfg.N
		}
		det, err := detect.NewDetector(dcfg)
		if err != nil {
			return nil, err
		}
		det.SetEscalationCounter(escalations)
		det.SetSweepInstruments(sweeps, sweepSeconds)
		s.detector = det
	}

	lim, err := NewLimiter(cfg.QueryRate, cfg.QueryBurst, cfg.Clock)
	if err != nil {
		return nil, err
	}
	if lim != nil {
		lim.SetRejectionCounter(reg.Counter("shield_rate_limit_rejections_total"))
		reg.GaugeFunc("shield_limiter_principals", func() float64 { return float64(lim.Principals()) })
		s.limiter = lim
	}
	if cfg.RegistrationInterval > 0 {
		regThrottle, err := ratelimit.NewRegistrationThrottle(cfg.RegistrationInterval, cfg.Clock)
		if err != nil {
			return nil, err
		}
		regThrottle.SetRejectionCounter(reg.Counter("shield_registration_rejections_total"))
		reg.GaugeFunc("shield_registrations_granted", func() float64 {
			return float64(regThrottle.Granted())
		})
		s.registrar = regThrottle
	}

	// Storage-layer instruments: aggregate pool counters plus the pin
	// balance (nonzero between statements means a leak). Hits and misses
	// count row reads; streamed counts the pages a statement read around
	// the pool instead of loading them (storage.Pool.ReadBatch).
	// Per-table gauges are synced here and again on each /metrics scrape,
	// picking up tables created after the shield started.
	reg.GaugeFunc("engine_pool_pinned", func() float64 { return float64(s.db.PinnedFrames()) })
	reg.GaugeFunc("engine_pool_hits", func() float64 { h, _, _ := s.db.PoolStats(); return float64(h) })
	reg.GaugeFunc("engine_pool_misses", func() float64 { _, m, _ := s.db.PoolStats(); return float64(m) })
	reg.GaugeFunc("engine_pool_evicts", func() float64 { _, _, e := s.db.PoolStats(); return float64(e) })
	reg.GaugeFunc("engine_pool_streamed", func() float64 { return float64(s.db.PoolStreamed()) })
	reg.GaugeFunc("engine_plan_cache_hits", func() float64 {
		h, _, _, _ := s.db.PlanCacheStats()
		return float64(h)
	})
	reg.GaugeFunc("engine_plan_cache_misses", func() float64 {
		_, m, _, _ := s.db.PlanCacheStats()
		return float64(m)
	})
	reg.GaugeFunc("engine_plan_cache_invalidations", func() float64 {
		_, _, inv, _ := s.db.PlanCacheStats()
		return float64(inv)
	})
	reg.GaugeFunc("engine_plan_cache_entries", func() float64 {
		_, _, _, n := s.db.PlanCacheStats()
		return float64(n)
	})
	// Concurrent write-path instruments: per-page latch traffic (waits
	// climbing against acquisitions means page-level contention), the
	// group-commit pipeline (fsyncs well below commits is the batching
	// win; window_waits_seconds is the latency spent earning it), and the
	// snapshot version chains (live versions held for in-flight scans,
	// retired ones reclaimed behind them).
	reg.GaugeFunc("engine_write_latch_acquisitions", func() float64 {
		a, _, _, _ := s.db.WriteStats()
		return float64(a)
	})
	reg.GaugeFunc("engine_write_latch_waits", func() float64 {
		_, w, _, _ := s.db.WriteStats()
		return float64(w)
	})
	reg.GaugeFunc("engine_snapshot_versions_live", func() float64 {
		_, _, live, _ := s.db.WriteStats()
		return float64(live)
	})
	reg.GaugeFunc("engine_snapshot_retired_total", func() float64 {
		_, _, _, ret := s.db.WriteStats()
		return float64(ret)
	})
	reg.GaugeFunc("wal_group_commits", func() float64 {
		c, _, _, _ := s.db.WALGroupStats()
		return float64(c)
	})
	reg.GaugeFunc("wal_group_batched_records", func() float64 {
		_, r, _, _ := s.db.WALGroupStats()
		return float64(r)
	})
	reg.GaugeFunc("wal_group_fsyncs", func() float64 {
		_, _, f, _ := s.db.WALGroupStats()
		return float64(f)
	})
	reg.GaugeFunc("wal_group_window_waits_seconds", func() float64 {
		_, _, _, wait := s.db.WALGroupStats()
		return wait
	})
	// Post-commit checkpoint failures: the triggering statements
	// succeeded (they were already WAL-durable), but the log cleaner is
	// failing — the same I/O signal that latches degraded mode.
	reg.GaugeFunc("engine_checkpoint_failures_total", func() float64 {
		return float64(s.db.CheckpointFailures())
	})
	s.SyncEngineMetrics()
	return s, nil
}

// Metrics returns the shield's instrument registry; serve its Handler at
// GET /metrics (internal/server does).
func (s *Shield) Metrics() *metrics.Registry { return s.met.registry }

// SyncEngineMetrics registers per-table buffer-pool gauges
// (engine_pool_hits{table="x"} and friends) for every table currently in
// the catalog. Registration overwrites, so re-syncing is idempotent; the
// server calls it before serving each /metrics scrape so tables created
// since startup appear without a restart.
func (s *Shield) SyncEngineMetrics() {
	reg := s.met.registry
	for _, name := range s.db.Tables() {
		name := name
		stat := func(pick func(h, m, e int64) int64) func() float64 {
			return func() float64 {
				h, m, e, err := s.db.TablePoolStats(name)
				if err != nil {
					return 0 // table dropped since registration
				}
				return float64(pick(h, m, e))
			}
		}
		reg.GaugeFunc(fmt.Sprintf("engine_pool_hits{table=%q}", name),
			stat(func(h, _, _ int64) int64 { return h }))
		reg.GaugeFunc(fmt.Sprintf("engine_pool_misses{table=%q}", name),
			stat(func(_, m, _ int64) int64 { return m }))
		reg.GaugeFunc(fmt.Sprintf("engine_pool_evicts{table=%q}", name),
			stat(func(_, _, e int64) int64 { return e }))
		reg.GaugeFunc(fmt.Sprintf("engine_pool_streamed{table=%q}", name), func() float64 {
			n, err := s.db.TablePoolStreamed(name)
			if err != nil {
				return 0
			}
			return float64(n)
		})
	}
}

// DB returns the wrapped database — the unprotected back door, used by
// loaders and experiments. Production front ends expose only the Shield.
func (s *Shield) DB() *engine.Database { return s.db }

// Tracker returns the access-count tracker. In adaptive mode it is the
// tracker selected at the time of the call — a concurrent selector
// switch may deactivate it at any moment, so multi-step reads that must
// be consistent with the active selection go through withActiveTracker
// instead (TopK and SaveCounts do).
func (s *Shield) Tracker() *counters.Decayed {
	if s.multi != nil {
		s.multiMu.Lock()
		defer s.multiMu.Unlock()
		tr, _ := s.multi.Active()
		return tr
	}
	return s.tracker
}

// withActiveTracker runs fn on the active tracker; in adaptive mode the
// selector lock is held for the duration, so a concurrent switch cannot
// interleave with the read. fn must not call back into the shield.
func (s *Shield) withActiveTracker(fn func(tr *counters.Decayed)) {
	if s.multi != nil {
		s.multiMu.Lock()
		defer s.multiMu.Unlock()
		tr, _ := s.multi.Active()
		fn(tr)
		return
	}
	fn(s.tracker)
}

// ActiveDecayRate returns the decay rate the shield is currently keying
// delays to — interesting in adaptive mode, where it may switch.
func (s *Shield) ActiveDecayRate() float64 {
	return s.Tracker().DecayRate()
}

// TopK returns the k most popular tuple ids with their decayed counts,
// per the current tracker. The snapshot is taken under the selector lock
// in adaptive mode, so it is consistent with one selection even while
// concurrent queries are switching trackers.
func (s *Shield) TopK(k int) (ids []uint64, counts []float64) {
	s.withActiveTracker(func(tr *counters.Decayed) {
		tr.Ascend(func(rank int, id uint64, count float64) bool {
			if rank > k {
				return false
			}
			ids = append(ids, id)
			counts = append(counts, count)
			return true
		})
	})
	return ids, counts
}

// ObserveLockAcquisitions returns how many times the observe path has
// entered its serialization section. The batch-first invariant is one
// entry per charged query, independent of the tuple count; the adaptive
// regression test and benchmark pin this down.
func (s *Shield) ObserveLockAcquisitions() int64 { return s.observeLocks.Load() }

// TuplesUpdated returns how many tuples UPDATE and DELETE statements
// through the shield have affected, one per key per statement (GET
// /stats "updates"; shield_tuples_updated_total on /metrics).
func (s *Shield) TuplesUpdated() int64 { return s.met.updated.Value() }

// UpdatePolicy returns the update-rate policy, or nil when the shield is
// popularity-keyed.
func (s *Shield) UpdatePolicy() *delay.UpdateRate { return s.updPolicy }

// Gate returns the delay gate (experiments use Quote for non-invasive
// measurement).
func (s *Shield) Gate() *delay.Gate { return s.gate }

// Detector returns the extraction detector, or nil when detection is
// off. The server's suspects endpoint reads through it.
func (s *Shield) Detector() *detect.Detector { return s.detector }

// Degraded reports whether the shield is in degraded mode, and if so
// the message of the I/O failure that put it there.
func (s *Shield) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	if cause := s.degradedCause.Load(); cause != nil {
		return true, *cause
	}
	return true, "unknown cause"
}

// enterDegraded latches degraded mode in response to a storage I/O
// failure. The first cause wins; repeated failures while already
// degraded change nothing. Reads keep flowing (the delay policy prices
// from in-memory counters), writes are refused until ClearDegraded.
func (s *Shield) enterDegraded(err error) {
	cause := err.Error()
	s.degradedCause.CompareAndSwap(nil, &cause)
	if s.degraded.CompareAndSwap(false, true) {
		s.met.registry.Counter("shield_degraded_entries_total").Inc()
	}
}

// ClearDegraded re-admits writes after the operator has repaired the
// storage fault (or verified it was transient). There is deliberately no
// automatic probe: a shield that flaps between modes under a half-dead
// disk is worse than one that stays down until a human looks.
func (s *Shield) ClearDegraded() {
	s.degraded.Store(false)
	s.degradedCause.Store(nil)
}

// noteExecError inspects a statement-execution error and latches
// degraded mode when it classifies as a storage I/O failure — injected
// or real. Request-shaped errors (bad SQL, duplicate keys, unknown
// tables) pass through untouched.
func (s *Shield) noteExecError(err error) {
	if errors.Is(err, storage.ErrIO) {
		s.enterDegraded(err)
	}
}

// principalKey maps an identity to its rate-limiting principal.
func (s *Shield) principalKey(identity string) string {
	if s.cfg.SubnetAggregation {
		return ratelimit.SubnetKey(identity)
	}
	return identity
}

// Register admits a new identity through the registration throttle. With
// no throttle configured it always succeeds.
func (s *Shield) Register(identity string) error {
	if s.registrar == nil {
		return nil
	}
	if wait, ok := s.registrar.TryRegister(); !ok {
		return &WaitError{fmt.Errorf("%w: next slot in %v", ErrRegistrationThrottled, wait), wait}
	}
	return nil
}

// ErrExplainBlocked is returned for EXPLAIN through the shielded front
// door: plans reveal index candidate counts without paying any delay.
var ErrExplainBlocked = errors.New("core: EXPLAIN is not available through the shielded front door")

// Query executes sql on behalf of identity, imposing the policy delay on
// returned tuples before the result is released. It is QueryCtx with an
// uncancellable context.
func (s *Shield) Query(identity, sql string) (*engine.Result, QueryStats, error) {
	return s.QueryCtx(context.Background(), identity, sql)
}

// QueryCtx is Query with cancellation: if ctx is cancelled or its
// deadline passes while the policy delay is being served, the call
// returns ctx's error promptly (on a real clock, without waiting out the
// remaining delay) and the result is withheld.
//
// Cancellation is NOT a refund. The rate-limit token is burned at entry,
// and the access observations are recorded even when the sleep is cut
// short — otherwise an adversary could quote the delay oracle for free by
// issuing queries and cancelling them the moment the response failed to
// arrive. QueryStats still carries the full quoted delay, but the caller
// never sees the tuples.
func (s *Shield) QueryCtx(ctx context.Context, identity, sql string) (*engine.Result, QueryStats, error) {
	return s.QueryInto(ctx, identity, sql, nil, nil, nil)
}

// QueryInto is QueryCtx restricted to the rows of parts, with a SELECT's
// reply written through enc onto body by engine.Prepared.ExecInto: the
// front door's path, where what the delay holds back is the encoded
// reply. The engine evaluates parts with the statement's WHERE clause,
// so the detector observes and the delay gate prices exactly the tuples
// the statement returned (or, for an aggregate, folded). A scatter leg
// uses this so a replica answering for a subset of its locally held
// partitions charges only that subset — otherwise every replica of a
// scanned range would inflate the caller's coverage sketch R-fold. A
// nil parts is every row; a non-nil one is for SELECT only. A nil enc keeps the rows as values in Result.Rows, as
// QueryCtx does; the statement runs the same engine path either way.
func (s *Shield) QueryInto(ctx context.Context, identity, sql string, parts *engine.PartitionSet, enc engine.RowEncoder, body []byte) (*engine.Result, QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	principal := s.principalKey(identity)
	if err := Admit(s.limiter, principal); err != nil {
		return nil, QueryStats{}, err
	}
	// Prepare instead of Parse: a repeated SELECT shape hits the
	// engine's plan cache and skips the parser entirely; the statement
	// kind is available either way for the gate checks below.
	prep, err := s.db.Prepare(sql)
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer prep.Release()
	kind := prep.Kind()
	if kind == engine.KindExplain {
		return nil, QueryStats{}, ErrExplainBlocked
	}
	if kind != engine.KindSelect {
		if s.cfg.Writers != nil && !s.cfg.Writers[identity] {
			return nil, QueryStats{}, fmt.Errorf("%w: %q", ErrNotWriter, identity)
		}
		if parts != nil {
			return nil, QueryStats{}, errors.New("core: a partition filter applies to SELECT statements only")
		}
		// Writes are refused while degraded: with persistence failing,
		// accepting a mutation risks acknowledging state that will not
		// survive a restart. Reads are still served (and still priced —
		// the counters are in memory).
		if on, cause := s.Degraded(); on {
			s.met.registry.Counter("shield_degraded_write_rejections_total").Inc()
			return nil, QueryStats{}, fmt.Errorf("%w (cause: %s)", ErrDegraded, cause)
		}
	}
	var clock *delay.PrincipalClock
	if kind == engine.KindSelect {
		if clock = s.gate.Admit(principal); clock == nil {
			return nil, QueryStats{}, fmt.Errorf("%w: principal %q", ErrPrincipalBusy, principal)
		}
		defer clock.Release()
	}
	prep.ExamineUpTo(NarrowCandidates)
	res, err := prep.ExecInto(parts, enc, body)
	if err != nil {
		s.noteExecError(err)
		return nil, QueryStats{}, err
	}
	if kind != engine.KindSelect {
		// A post-commit checkpoint failure does not fail its statement —
		// the mutation committed and is WAL-durable — but it is a storage
		// I/O failure all the same: latch degraded mode so later writes
		// are refused rather than accepted against a failing disk.
		if cperr := s.db.TakeCheckpointErr(); cperr != nil {
			s.noteExecError(cperr)
		}
	}
	if res.Columns != nil {
		// SELECT: charge delay for every returned tuple — every tuple it
		// read, when its candidate set was narrow — on the principal's
		// clock. The gate records the access observations
		// even on cancellation.
		//
		// Detection observes first (one sharded batch update, before the
		// sleep, so cancellation cannot dodge it) and returns the
		// escalation multiplier including this query's own tuples — a
		// single catalog-wide scan cannot finish inside its grace period.
		ids := res.Keys
		if ex := prep.Examined(); ex != nil {
			ids = ex
		}
		mult := 1.0
		if s.detector != nil {
			mult = s.detector.ObserveBatch(principal, ids)
		}
		d, cerr := s.gate.ChargeCtxScaled(ctx, clock, mult, ids...)
		qs := QueryStats{Delay: d, Tuples: len(ids)}
		s.met.tuples.Add(int64(len(ids)))
		if cerr != nil {
			s.met.cancelled.Inc()
			return nil, qs, cerr
		}
		s.delays.Add(d.Seconds())
		s.met.served.Inc()
		return res, qs, nil
	}
	// Write statement: count the tuples it updated or deleted; evict
	// deleted tuples from the popularity tracking.
	s.met.writes.Inc()
	s.met.updated.Add(int64(len(res.Keys)))
	if kind == engine.KindDelete {
		for _, key := range res.Keys {
			s.forgetTuple(key)
		}
		return res, QueryStats{}, nil
	}
	if s.updPolicy != nil {
		for _, key := range res.Keys {
			s.updPolicy.RecordUpdate(key)
		}
		s.updPolicy.SetWindow(s.Window())
	}
	return res, QueryStats{}, nil
}

// DelayQuantile estimates the q-quantile of the per-query delays this
// shield has imposed (from a uniform reservoir sample). ok is false
// before any query has been served.
func (s *Shield) DelayQuantile(q float64) (d time.Duration, ok bool) {
	sec, err := s.delays.Quantile(q)
	if err != nil {
		return 0, false
	}
	return delay.SecondsToDuration(sec), true
}

// QueriesServed returns the number of SELECT queries the shield has
// priced.
func (s *Shield) QueriesServed() int64 { return s.delays.N() }

// forgetTuple drops a deleted tuple from every tracker so dead tuples do
// not keep occupying popularity ranks.
func (s *Shield) forgetTuple(id uint64) {
	if s.multi != nil {
		s.multiMu.Lock()
		for _, tr := range s.multi.Trackers() {
			tr.Remove(id)
		}
		s.multiMu.Unlock()
	} else {
		s.tracker.Remove(id)
	}
	if s.updPolicy != nil {
		s.updPolicy.Tracker().Remove(id)
	}
}

// Window returns the seconds elapsed on the shield's clock since it was
// created — the observation window used to turn update counts into rates.
func (s *Shield) Window() float64 {
	return s.cfg.Clock.Now().Sub(s.started).Seconds()
}

// SaveCounts persists the current tracker's learned counts to store —
// the paper's design point that counts live with the data. Pair with
// LoadCounts at startup so the defense does not relearn from scratch
// (and re-expose the start-up transient) after every restart.
//
// The snapshot is written as one atomic clear-and-replace: a crash
// mid-save recovers to the previous complete snapshot, and stale rows
// from an earlier, larger save cannot shadow the current state.
func (s *Shield) SaveCounts(store counters.BatchStore) error {
	var ids []uint64
	var counts []float64
	s.withActiveTracker(func(tr *counters.Decayed) { ids, counts = tr.Export() })
	if err := store.ReplaceAllCounts(ids, counts); err != nil {
		s.noteExecError(err)
		return fmt.Errorf("core: saving counts: %w", err)
	}
	return nil
}

// LoadCounts restores learned counts previously written by SaveCounts.
// In adaptive mode every tracker is seeded with the same counts.
func (s *Shield) LoadCounts(all func() (ids []uint64, counts []float64, err error)) error {
	ids, counts, err := all()
	if err != nil {
		return err
	}
	if s.multi != nil {
		s.multiMu.Lock()
		defer s.multiMu.Unlock()
		for _, tr := range s.multi.Trackers() {
			if err := tr.Import(ids, counts); err != nil {
				return err
			}
		}
		return nil
	}
	return s.tracker.Import(ids, counts)
}

// QuoteExtraction returns, without sleeping or perturbing counts, the
// total delay an adversary would face extracting the given tuple ids
// one query at a time under the current learned state.
func (s *Shield) QuoteExtraction(ids []uint64) time.Duration {
	return s.gate.Quote(ids...)
}
