// Package detect estimates, online and in bounded memory, how much of
// the database each principal — or coalition of principals — has
// already extracted, and prices continued extraction accordingly.
//
// The paper's delay defense is passive: a Sybil adversary who spreads a
// scan over k identities divides the accumulated delay by k (§2.4).
// The detector closes that gap from the defense side. Per principal it
// maintains two sketches over the tuple ids the principal's queries
// returned: a HyperLogLog giving a coverage estimate (fraction of the
// catalog fetched), and a one-permutation MinHash signature of the
// tuple-id set. Principals whose signatures exceed a Jaccard threshold
// are periodically clustered into suspected coalitions, and the union
// coverage of the coalition (merged HLLs) is attributed to every
// member. An EscalationPolicy maps the effective coverage to a delay
// multiplier the Shield applies at charge time, so the k-identity
// advantage collapses once the streams become distinguishable from
// legitimate traffic — by individual volume or by mutual overlap.
//
// Memory is bounded: principals live in power-of-two lock-striped
// shards of fixed capacity, and when a shard is full the coldest
// principal (least-recently observed) is evicted.
package detect

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Config parameterizes a Detector. CatalogSize is required: it must be
// the N the deployment's delay formulas use, since coverage is
// estimated against it. A zero JaccardThreshold, Policy.Grace or
// Policy.Cap means its default; any other value outside its range is an
// error from NewDetector.
type Config struct {
	// CatalogSize is the number of tuples in the protected database.
	CatalogSize int
	// Policy maps effective coverage to a delay multiplier.
	Policy EscalationPolicy
	// JaccardThreshold, in (0, 1], is the signature similarity at or
	// above which two principals are clustered into one coalition. 0
	// means DefaultJaccardThreshold.
	JaccardThreshold float64
}

// DefaultJaccardThreshold sits well above the ≈0.04 similarity of two
// independent readers of a few percent of the catalog.
const DefaultJaccardThreshold = 0.35

// The detector's sizes and sweep cadence. They are fixed rather than
// configured: every shard of a cluster must build sketches of one
// layout for anti-entropy to merge them, and nothing has needed other
// values.
const (
	// maxPrincipals bounds tracked principals: 4,096 × 3 KiB of sketches
	// is 12 MiB. The coldest principal in a full stripe is evicted.
	maxPrincipals = 4096
	// stripes is the lock-stripe count, a power of two; each stripe
	// holds at most stripeCap principals, its map growing with them.
	stripes   = 16
	stripeCap = maxPrincipals / stripes
	// hllPrecision is the coverage sketch precision p: 2^10 one-byte
	// registers, a standard error of about 3%.
	hllPrecision = 10
	// signatureSlots is the MinHash width: 256 eight-byte slots resolve
	// the 0.35 threshold to within a few hundredths, and a pair's match
	// count always fits the sweep's uint16.
	signatureSlots = 256
	// sketchBytes is one principal's sketch footprint.
	sketchBytes = 1<<hllPrecision + 8*signatureSlots
	// reclusterEvery is how many observed batches pass between
	// clustering sweeps: one request in 256 pays for a sweep.
	reclusterEvery = 256
	// maxCandidates bounds the clustering pass to the highest-coverage
	// principals, keeping the sweep's cost and memory independent of
	// how many principals are tracked.
	maxCandidates = 256
)

func (c *Config) fill() error {
	if c.CatalogSize < 1 {
		return errors.New("detect: CatalogSize must be ≥ 1")
	}
	if err := c.Policy.fill(); err != nil {
		return err
	}
	if c.JaccardThreshold == 0 {
		c.JaccardThreshold = DefaultJaccardThreshold
	}
	if !(c.JaccardThreshold > 0 && c.JaccardThreshold <= 1) {
		return fmt.Errorf("detect: JaccardThreshold %v outside (0, 1]", c.JaccardThreshold)
	}
	return nil
}

// principalState is one tracked principal. All fields are guarded by
// the owning shard's lock.
type principalState struct {
	hll *HLL
	sig *Signature
	// dirty marks the signature slots lowered since a sweep last copied
	// them into the principal's column.
	dirty slotMask
	// lastSeen is the detector-wide batch sequence at the principal's
	// most recent observation; eviction removes the minimum. Absorb
	// bumps it too, so remote-hot principals survive eviction.
	lastSeen uint64
	// localSeen is the sequence of the most recent *local* observation.
	// ExportSince filters on it, so sketches absorbed from peers are
	// never re-exported — anti-entropy cannot echo.
	localSeen uint64
	// ownCov is the cached own coverage estimate, refreshed per batch.
	ownCov float64
	// Coalition attribution from the last clustering sweep. coalition
	// is empty for singletons.
	coalition    string
	coalitionN   int
	coalitionCov float64
	// mult is the applied multiplier: escalates instantly with raw
	// coverage, releases geometrically per sweep (policy hysteresis).
	mult float64
}

type detectShard struct {
	mu      sync.Mutex
	entries map[string]*principalState
}

// Detector tracks per-principal coverage sketches and coalition
// attributions. All methods are safe for concurrent use.
type Detector struct {
	cfg    Config
	shards [stripes]detectShard
	// floor is the own coverage a principal needs to enter the
	// clustering pass, half the policy grace: principals below it
	// cannot be part of a meaningful coalition yet.
	floor float64

	// seq is the global observation sequence, doubling as the
	// recency stamp for evict-coldest.
	seq atomic.Uint64
	// clusterMu serializes clustering sweeps and guards sweep, their
	// working memory. The observer whose batch crosses the cadence runs
	// the sweep itself; one that crosses while a sweep is running skips
	// it (TryLock), so observers never queue behind each other.
	clusterMu sync.Mutex
	sweep     sweepScratch

	// Sweep results for the gauges.
	coalitions atomic.Int64

	// escalations counts principals crossing from 1× to >1×, set via
	// SetEscalationCounter.
	escalations *metrics.Counter
	// sweeps and sweepSeconds count and time clustering sweeps, set
	// together via SetSweepInstruments.
	sweeps       *metrics.Counter
	sweepSeconds *metrics.Histogram
}

// NewDetector builds a detector from cfg (zero fields filled with
// defaults; CatalogSize is required).
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, floor: cfg.Policy.Grace / 2}
	for i := range d.shards {
		d.shards[i].entries = make(map[string]*principalState)
	}
	d.sweep.init(signatureSlots)
	return d, nil
}

// newState returns a principal with empty sketches and every signature
// slot dirty: a name evicted and seen again may still hold the column
// its earlier self had, and that column must be copied whole.
func newState() *principalState {
	st := &principalState{
		hll:  NewHLL(hllPrecision),
		sig:  NewSignature(signatureSlots),
		mult: 1,
	}
	for k := range st.dirty {
		st.dirty[k] = ^uint64(0)
	}
	return st
}

// lower puts hash h into signature slot i if it is below what the slot
// holds, marking the slot dirty.
func (st *principalState) lower(i int, h uint64) {
	if h < st.sig.slots[i] {
		st.sig.slots[i] = h
		st.dirty[i>>6] |= 1 << (i & 63)
	}
}

// SetEscalationCounter attaches a counter incremented each time a
// principal's applied multiplier first rises above 1×. May be nil.
// Call before the detector is shared between goroutines.
func (d *Detector) SetEscalationCounter(c *metrics.Counter) { d.escalations = c }

// SetSweepInstruments attaches a counter incremented per clustering
// sweep and a histogram of what each one took, in seconds. Both or
// neither; call before the detector is shared between goroutines.
func (d *Detector) SetSweepInstruments(sweeps *metrics.Counter, seconds *metrics.Histogram) {
	d.sweeps, d.sweepSeconds = sweeps, seconds
}

func (d *Detector) shard(principal string) *detectShard {
	return &d.shards[hashString(principal)&(stripes-1)]
}

// ObserveBatch folds one query's observed tuple ids into the
// principal's sketches and returns the delay multiplier the query
// should be charged at — including the effect of this batch, so a
// single catalog-wide scan cannot finish inside its own grace period.
// The caller passes ids before sleeping the delay; like the gate's
// learner observations, detection must not be skippable by cancelling.
// An empty batch observes nothing: it returns the current multiplier and
// creates, evicts and counts nothing, so free queries that match no
// tuple cannot push a tracked principal out of its stripe.
func (d *Detector) ObserveBatch(principal string, ids []uint64) float64 {
	if len(ids) == 0 {
		return d.Multiplier(principal)
	}
	s := d.shard(principal)
	s.mu.Lock()
	// The sequence is acquired INSIDE the shard critical section, so
	// seq-acquire and the localSeen stamp below are atomic with respect
	// to ExportSince's scan of this shard. That is what makes the
	// export watermark sound: ExportSince loads seq=S before scanning,
	// and any batch holding seq ≤ S still holds this lock until its
	// stamp is written — the scan cannot pass the shard between the two
	// and then skip the stamp forever as "≤ since". A batch that gets
	// its seq after the scan's load necessarily gets seq > S and is
	// picked up by the next export.
	seq := d.seq.Add(1)
	st, ok := s.entries[principal]
	if !ok {
		if len(s.entries) >= stripeCap {
			evictColdest(s)
		}
		st = newState()
		s.entries[principal] = st
	}
	st.lastSeen = seq
	st.localSeen = seq
	for _, id := range ids {
		h := mix64(id)
		st.hll.Add(h)
		st.lower(int(h&(signatureSlots-1)), h)
	}
	st.ownCov = clamp01(st.hll.Estimate() / float64(d.cfg.CatalogSize))
	eff := st.ownCov
	if st.coalitionCov > eff {
		eff = st.coalitionCov
	}
	if raw := d.cfg.Policy.Multiplier(eff); raw > st.mult {
		if st.mult <= 1 && raw > 1 && d.escalations != nil {
			d.escalations.Inc()
		}
		st.mult = raw
	}
	mult := st.mult
	s.mu.Unlock()

	if seq%reclusterEvery == 0 {
		d.tryRecluster()
	}
	return mult
}

// Multiplier returns the current applied multiplier for principal
// without observing anything (1 for untracked principals).
func (d *Detector) Multiplier(principal string) float64 {
	s := d.shard(principal)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.entries[principal]; ok {
		return st.mult
	}
	return 1
}

// evictColdest removes the least-recently observed principal from a
// full shard. Called under the shard lock; O(shard size), paid only on
// insertion into a full shard.
func evictColdest(s *detectShard) {
	var victim string
	min := uint64(math.MaxUint64)
	for name, st := range s.entries {
		if st.lastSeen < min {
			min = st.lastSeen
			victim = name
		}
	}
	delete(s.entries, victim)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// tryRecluster runs a sweep on the calling request's goroutine unless
// one is already in flight, in which case the caller skips it: crossers
// never queue behind each other, but the one that wins pays for the
// sweep before its query is charged.
func (d *Detector) tryRecluster() {
	if !d.clusterMu.TryLock() {
		return
	}
	defer d.clusterMu.Unlock()
	d.reclusterLocked()
}

// Recluster forces a clustering sweep (blocking if one is running).
// The server's suspects endpoint and the experiments call it for
// deterministic, up-to-date attributions.
func (d *Detector) Recluster() {
	d.clusterMu.Lock()
	defer d.clusterMu.Unlock()
	d.reclusterLocked()
}

// reclusterLocked brings the candidates' signature columns up to date,
// greedily clusters them by signature similarity, attributes
// merged-union coverage to each coalition, and writes attributions (and
// hysteresis releases) back.
//
// Clustering is greedy star, not single-linkage: the highest-coverage
// unassigned candidate becomes a centroid and absorbs every unassigned
// candidate within the Jaccard threshold of *it*. Transitive chaining
// (A~B, B~C, A≁C) could otherwise glue legitimate heavy users into an
// adversary's coalition through a shared popular head.
func (d *Detector) reclusterLocked() {
	start := time.Now()
	w := &d.sweep

	// Phase 1: pick the candidates — (name, coverage) only — under each
	// shard lock in turn, then copy what changed in the chosen few's
	// signatures into their columns.
	w.cands = w.cands[:0]
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for name, st := range s.entries {
			if st.ownCov >= d.floor {
				w.cands = append(w.cands, candidate{name: name, cov: st.ownCov})
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(w.cands, func(a, b candidate) int {
		if a.cov != b.cov {
			return cmp.Compare(b.cov, a.cov)
		}
		return strings.Compare(a.name, b.name)
	})
	if len(w.cands) > maxCandidates {
		w.cands = w.cands[:maxCandidates]
	}
	cands := w.cands
	w.load(d)

	// Phase 2: cluster the columns, taking a shard lock only to merge a
	// coalition member's HLL into the union.
	clear(w.attr)
	w.assigned = resized(w.assigned, len(cands))
	clear(w.assigned)
	var ncoal int64
	for i := range cands {
		if w.assigned[i] {
			continue
		}
		members := append(w.members[:0], i)
		ci := int(w.col[i])
		for j := i + 1; j < len(cands); j++ {
			if !w.assigned[j] && w.similar(ci, int(w.col[j]), d.cfg.JaccardThreshold) {
				members = append(members, j)
			}
		}
		w.members = members
		if len(members) < 2 {
			continue
		}
		ncoal++
		cov := d.unionCoverage(members)
		a := attribution{coalition: cands[i].name, n: len(members), cov: cov}
		for _, m := range members {
			w.assigned[m] = true
			w.attr[cands[m].name] = a
		}
	}
	d.coalitions.Store(ncoal)

	// Phase 3: write attributions back and apply hysteresis release.
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for name, st := range s.entries {
			a := w.attr[name] // zero unless the sweep put name in a coalition
			st.coalition = a.coalition
			st.coalitionN = a.n
			st.coalitionCov = a.cov
			eff := st.ownCov
			if st.coalitionCov > eff {
				eff = st.coalitionCov
			}
			raw := d.cfg.Policy.Multiplier(eff)
			next := d.cfg.Policy.release(st.mult, raw)
			if st.mult <= 1 && next > 1 && d.escalations != nil {
				d.escalations.Inc()
			}
			st.mult = next
		}
		s.mu.Unlock()
	}
	if d.sweeps != nil {
		d.sweeps.Inc()
		d.sweepSeconds.Observe(time.Since(start).Seconds())
	}
}

// unionCoverage merges the HLLs of the given candidates, in order, and
// returns the union's coverage. Each HLL is read under its shard lock; a
// principal evicted since the candidates were chosen adds nothing.
func (d *Detector) unionCoverage(members []int) float64 {
	w := &d.sweep
	empty := true
	for _, m := range members {
		name := w.cands[m].name
		s := d.shard(name)
		s.mu.Lock()
		if st, ok := s.entries[name]; ok {
			if empty {
				w.union.copyFrom(st.hll)
			} else {
				w.union.Merge(st.hll)
			}
			empty = false
		}
		s.mu.Unlock()
	}
	if empty {
		return 0
	}
	return clamp01(w.union.Estimate() / float64(d.cfg.CatalogSize))
}

// Suspect is one entry of the ranked suspect list.
type Suspect struct {
	Principal string `json:"principal"`
	// Coverage is the principal's own estimated catalog fraction.
	Coverage float64 `json:"coverage"`
	// Coalition names the suspected coalition (its highest-coverage
	// member at the last sweep); empty for principals clustered alone.
	Coalition string `json:"coalition,omitempty"`
	// CoalitionSize and CoalitionCoverage describe the coalition's
	// member count and merged union coverage.
	CoalitionSize     int     `json:"coalition_size,omitempty"`
	CoalitionCoverage float64 `json:"coalition_coverage,omitempty"`
	// Multiplier is the delay multiplier currently applied.
	Multiplier float64 `json:"multiplier"`
}

// effective returns the coverage the suspect is priced on.
func (s Suspect) effective() float64 {
	if s.CoalitionCoverage > s.Coverage {
		return s.CoalitionCoverage
	}
	return s.Coverage
}

// Suspects returns the top k tracked principals ranked by effective
// (own or coalition) coverage, ties broken by name for stable output.
func (d *Detector) Suspects(k int) []Suspect {
	var out []Suspect
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for name, st := range s.entries {
			out = append(out, Suspect{
				Principal:         name,
				Coverage:          st.ownCov,
				Coalition:         st.coalition,
				CoalitionSize:     st.coalitionN,
				CoalitionCoverage: st.coalitionCov,
				Multiplier:        st.mult,
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		ei, ej := out[i].effective(), out[j].effective()
		if ei != ej {
			return ei > ej
		}
		return out[i].Principal < out[j].Principal
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TrackedPrincipals returns how many principals are currently tracked.
func (d *Detector) TrackedPrincipals() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// SketchBytes returns the sketch memory currently held, the product of
// tracked principals and the fixed per-principal sketch footprint.
func (d *Detector) SketchBytes() int {
	return d.TrackedPrincipals() * sketchBytes
}

// Coalitions returns the coalition count found by the last sweep.
func (d *Detector) Coalitions() int { return int(d.coalitions.Load()) }

// MaxCoverage returns the highest effective coverage across tracked
// principals right now.
func (d *Detector) MaxCoverage() float64 {
	max := 0.0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for _, st := range s.entries {
			eff := st.ownCov
			if st.coalitionCov > eff {
				eff = st.coalitionCov
			}
			if eff > max {
				max = eff
			}
		}
		s.mu.Unlock()
	}
	return max
}
