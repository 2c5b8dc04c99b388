// Package delaydefense is a from-scratch reproduction of "Using Delay to
// Defend Against Database Extraction" (Jayapandian, Noble, Mickens,
// Jagadish; SDM @ VLDB 2004): an embedded relational database whose front
// door prices every tuple retrieval by how legitimate the access pattern
// looks.
//
// Popular tuples are nearly free; the cold long tail that only an
// extraction robot would ask for costs up to a configurable cap per
// tuple. Legitimate, skewed workloads see millisecond median delays while
// copying the whole database takes hours to weeks. A second policy keys
// delay to update rate instead, guaranteeing that an extracted copy is
// largely stale by the time the extraction finishes. Per-identity rate
// limits, subnet aggregation, and a registration throttle blunt parallel
// (Sybil) attacks.
//
// Quick start:
//
//	db, err := delaydefense.Open(dir, delaydefense.Config{
//		N:     100_000,         // dataset size
//		Alpha: 1.0,             // assumed workload skew
//		Beta:  2.0,             // extraction penalty exponent
//		Cap:   10 * time.Second // max delay per tuple
//	})
//	...
//	db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`) // admin path, no delay
//	res, stats, err := db.Query("alice", `SELECT * FROM items WHERE id = 7`)
//
// The full experiment suite reproducing the paper's Tables 1–5 and
// Figures 1–6 lives in cmd/extractbench and bench_test.go; DESIGN.md maps
// each to its modules and EXPERIMENTS.md records measured-vs-paper
// numbers.
package delaydefense

import (
	"context"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/vclock"
)

// Clock abstracts time for the shield; see NewSimulatedClock.
type Clock = vclock.Clock

// SimulatedClock is a discrete-event clock: sleeps advance it instantly,
// so experiments accumulate week-long adversary delays in microseconds.
type SimulatedClock = vclock.Simulated

// NewSimulatedClock returns a simulated clock starting at epoch. Pass it
// as Config.Clock to run the defense on virtual time.
func NewSimulatedClock(epoch time.Time) *SimulatedClock {
	return vclock.NewSimulated(epoch)
}

// Config parameterizes the shield; see core.Config for field docs.
type Config = core.Config

// DetectConfig parameterizes the extraction detector; assign a pointer
// to Config.Detect to enable it. See detect.Config for field docs.
type DetectConfig = detect.Config

// EscalationPolicy maps estimated extraction coverage to the delay
// multiplier the detector applies; see detect.EscalationPolicy.
type EscalationPolicy = detect.EscalationPolicy

// QueryStats reports the delay imposed on one query.
type QueryStats = core.QueryStats

// Result is a statement result: columns/rows for SELECT, affected count
// and touched keys for writes.
type Result = engine.Result

// PolicyKind selects how delays are keyed.
type PolicyKind = core.PolicyKind

// Policy kinds.
const (
	// ByPopularity keys delay to access popularity (§2 of the paper).
	ByPopularity = core.ByPopularity
	// ByUpdateRate keys delay to update rate (§3), for uniform access
	// patterns over frequently updated data.
	ByUpdateRate = core.ByUpdateRate
)

// Sentinel errors returned by Query and Register.
var (
	ErrRateLimited           = core.ErrRateLimited
	ErrRegistrationThrottled = core.ErrRegistrationThrottled
	ErrNotWriter             = core.ErrNotWriter
)

// DB is a delay-defended database: an embedded relational engine plus the
// shield that meters its front door. It is safe for concurrent use.
type DB struct {
	eng    *engine.Database
	shield *core.Shield
}

// EngineOption forwards engine tuning (buffer pool size, write-ahead log).
type EngineOption = engine.Option

// WithPoolPages sets the per-table buffer pool capacity in pages.
func WithPoolPages(n int) EngineOption { return engine.WithPoolPages(n) }

// WithWAL enables per-statement write-ahead logging with crash recovery;
// synced additionally fsyncs the log on every commit.
func WithWAL(synced bool) EngineOption { return engine.WithWAL(synced) }

// Open opens (creating if needed) a delay-defended database in dir.
func Open(dir string, cfg Config, opts ...EngineOption) (*DB, error) {
	eng, err := engine.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	shield, err := core.New(eng, cfg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &DB{eng: eng, shield: shield}, nil
}

// Query executes sql on behalf of identity through the shield: results
// are delayed according to the policy, the access statistics are updated,
// and rate limits are enforced.
func (d *DB) Query(identity, sql string) (*Result, QueryStats, error) {
	return d.shield.Query(identity, sql)
}

// QueryCtx is Query with cancellation: when ctx is cancelled or its
// deadline passes mid-delay, the call returns promptly with the context's
// error. The attempt is still charged — access observations are recorded
// and the rate-limit token is burned — so cancellation cannot be used to
// probe delays for free.
func (d *DB) QueryCtx(ctx context.Context, identity, sql string) (*Result, QueryStats, error) {
	return d.shield.QueryCtx(ctx, identity, sql)
}

// Metrics returns the shield's instrument registry (counters, gauges and
// the delay histogram); Metrics().Handler() serves it as JSON.
func (d *DB) Metrics() *metrics.Registry { return d.shield.Metrics() }

// Exec executes sql directly against the engine, bypassing the shield.
// It is the administrative path for loading data and schema changes; do
// not expose it to untrusted clients.
func (d *DB) Exec(sql string) (*Result, error) { return d.eng.Exec(sql) }

// ExecScript executes a semicolon-separated statement sequence on the
// administrative path — typically a schema/load file.
func (d *DB) ExecScript(src string) ([]*Result, error) { return d.eng.ExecScript(src) }

// Register admits a new identity through the registration throttle.
func (d *DB) Register(identity string) error { return d.shield.Register(identity) }

// QuoteExtraction prices a full extraction of the given tuple ids under
// the current learned state, without sleeping or perturbing statistics.
func (d *DB) QuoteExtraction(ids []uint64) time.Duration {
	return d.shield.QuoteExtraction(ids)
}

// Shield exposes the underlying shield for advanced inspection
// (trackers, gate, detector).
func (d *DB) Shield() *core.Shield { return d.shield }

// Handler returns an http.Handler serving the shielded query API
// (POST /query, POST /register, GET /stats, GET /metrics, GET /healthz).
func (d *DB) Handler() (http.Handler, error) {
	srv, err := server.New(d.shield)
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// HandlerWithDeadline is Handler with a per-request query deadline: a
// query whose policy delay outlives d is cancelled and answered with
// HTTP 504 — still charged. Zero means no deadline.
func (d *DB) HandlerWithDeadline(deadline time.Duration) (http.Handler, error) {
	srv, err := server.New(d.shield, server.WithQueryDeadline(deadline))
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// SaveLearnedCounts persists the shield's learned access counts into a
// count table inside the database itself (the paper's design point that
// counts live with the data). Call before Close so a restarted process
// can LoadLearnedCounts instead of relearning — and re-exposing the
// start-up transient.
func (d *DB) SaveLearnedCounts() error {
	store, err := engine.NewCountStore(d.eng, "shield")
	if err != nil {
		return err
	}
	return d.shield.SaveCounts(store)
}

// LoadLearnedCounts restores counts saved by SaveLearnedCounts. Missing
// saved state is not an error; the shield simply starts cold.
func (d *DB) LoadLearnedCounts() error {
	store, err := engine.NewCountStore(d.eng, "shield")
	if err != nil {
		return err
	}
	return d.shield.LoadCounts(store.AllCounts)
}

// Flush persists all dirty pages.
func (d *DB) Flush() error { return d.eng.Flush() }

// Close flushes and closes the database.
func (d *DB) Close() error { return d.eng.Close() }
