// Package fault is a deterministically seeded failpoint registry for the
// storage stack. Every pager, WAL, and buffer-pool I/O site runs a named
// failpoint; with no registry enabled the check compiles down to one
// atomic pointer load and a nil compare, so the production hot path pays
// nothing. With a registry enabled, rules injected per site can return
// errors, tear writes short (a crash-torn append without crashing the
// process), add I/O latency, or simulate a crash at the point itself.
//
// Rules trigger deterministically: hit counters plus a per-rule
// splitmix64 PRNG seeded from the registry seed, so a failing torture run
// replays byte-for-byte from its seed. The DELAYDB_FAULTS environment
// knob (see Parse) drives the same registry from outside the process.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one failpoint in the storage stack.
type Site uint8

// The failpoint catalog. Every I/O chokepoint of the storage layer runs
// exactly one of these (DESIGN.md §12 maps each to its call site).
const (
	// PagerRead guards physical page reads (Pager.Read).
	PagerRead Site = iota
	// PagerWrite guards physical page writes, including eviction
	// write-back, WriteImage during recovery, and file extension.
	PagerWrite
	// PagerSync guards fsync of the data file (Pager.Sync).
	PagerSync
	// WALAppend guards the WAL batch append — the commit point. Torn
	// rules here produce exactly the half-written tails recovery must
	// survive.
	WALAppend
	// WALReplay guards recovery's log scan (WAL.Replay).
	WALReplay
	// PoolLoad guards buffer-pool loading-frame fills (the miss path of
	// Pool.Fetch), upstream of the pager read itself.
	PoolLoad
	// WALGroupFlush guards the group-commit leader's flush, after the
	// coalesced batch hit the file but before the fsync — a leader crash
	// mid-group. Error rules here fail every committer in the group.
	WALGroupFlush
	// ClusterRPC guards every router→shard peer RPC. Error rules drop
	// the request before it leaves (a refused connection), latency rules
	// stall it in the network, and torn rules deliver the response but
	// truncate its body to n bytes — a connection dying mid-reply.
	ClusterRPC
	// ClusterFanout guards each per-target dispatch inside a router
	// fan-out (group writes, scatter reads/writes), letting one leg of a
	// fan fail while its siblings proceed.
	ClusterFanout

	numSites
)

var siteNames = [numSites]string{
	"pager.read",
	"pager.write",
	"pager.sync",
	"wal.append",
	"wal.replay",
	"pool.load",
	"wal.groupflush",
	"cluster.rpc",
	"cluster.fanout",
}

// String returns the site's spec name (as used in DELAYDB_FAULTS).
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ParseSite resolves a spec name to its Site.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown site %q", name)
}

// Sites lists the full failpoint catalog.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Kind is what an armed rule does when it fires.
type Kind uint8

// Rule kinds.
const (
	// Error makes the site return Rule.Err (default ErrInjected).
	Error Kind = iota
	// Latency sleeps Rule.Latency at the site, then lets the I/O proceed.
	Latency
	// Torn lets only Rule.TornBytes bytes of the write reach the file,
	// then returns the error — a crash mid-write without the crash. At
	// non-write sites it behaves like Error.
	Torn
	// Crash invokes the crash handler (default: panic with a *CrashPanic)
	// — the in-process stand-in for dying at exactly this point.
	Crash
)

var kindNames = [...]string{"err", "latency", "torn", "crash"}

// String returns the kind's spec name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is the default error injected by Error and Torn rules.
// Storage wraps it like any real I/O failure, so errors.Is(err,
// storage.ErrIO) holds for injected faults too.
var ErrInjected = errors.New("fault: injected failure")

// CrashPanic is the panic value of a fired Crash rule under the default
// handler; harnesses recover it at the workload boundary.
type CrashPanic struct{ Site Site }

// Error implements error so recovered crash panics read naturally.
func (c *CrashPanic) Error() string {
	return fmt.Sprintf("fault: injected crash at %s", c.Site)
}

// Rule arms one site. The zero trigger fields mean "fire on every hit":
// After skips the first hits, Every fires on every n-th eligible hit,
// Count caps total fires, and P (when in (0,1)) gates each fire on the
// rule's deterministic PRNG.
type Rule struct {
	Site      Site
	Kind      Kind
	After     uint64        // skip the first After hits
	Every     uint64        // then fire on every Every-th eligible hit (0 = every)
	Count     uint64        // fire at most Count times (0 = unlimited)
	P         float64       // fire probability per eligible hit (0 = always)
	Latency   time.Duration // Latency rules: how long to sleep
	TornBytes int           // Torn rules: bytes allowed through before the error
	Err       error         // Error/Torn rules: error to inject (nil = ErrInjected)
}

// ruleState is a Rule plus its runtime trigger state.
type ruleState struct {
	Rule
	hits  atomic.Uint64
	fires atomic.Uint64
	rngMu sync.Mutex
	rng   uint64
}

// splitmix64 is the standard SplitMix64 step, the same generator the
// detection sketches use; good enough to decorrelate rule firings and
// trivially reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4a9b51d9e2e35
	return z ^ (z >> 31)
}

func (r *ruleState) roll() float64 {
	r.rngMu.Lock()
	r.rng = splitmix64(r.rng)
	v := r.rng
	r.rngMu.Unlock()
	return float64(v>>11) / float64(1<<53)
}

// Registry is one armed set of rules. Build it, Add rules, then Enable
// it; the storage layer consults whichever registry is enabled.
type Registry struct {
	seed  uint64
	rules [numSites][]*ruleState
	hits  [numSites]atomic.Uint64
	fires [numSites]atomic.Uint64
}

// NewRegistry returns an empty registry whose probabilistic rules derive
// from seed (same seed, same firing sequence).
func NewRegistry(seed uint64) *Registry {
	return &Registry{seed: seed}
}

// Add arms a rule. Call before Enable; rules cannot be added to a live
// registry (there is no lock on the check path).
func (r *Registry) Add(rule Rule) *Registry {
	if rule.Site >= numSites {
		panic(fmt.Sprintf("fault: bad site %d", rule.Site))
	}
	st := &ruleState{Rule: rule}
	// Decorrelate rules: seed ⊕ site ⊕ rule index through one mix step.
	st.rng = splitmix64(r.seed ^ uint64(rule.Site)<<32 ^ uint64(len(r.rules[rule.Site])))
	r.rules[rule.Site] = append(r.rules[rule.Site], st)
	return r
}

// Hits returns how many times the site's failpoint has been evaluated.
func (r *Registry) Hits(s Site) uint64 { return r.hits[s].Load() }

// Fires returns how many times any rule at the site has fired.
func (r *Registry) Fires(s Site) uint64 { return r.fires[s].Load() }

// active is the enabled registry; nil means every failpoint is inert.
var active atomic.Pointer[Registry]

// Enable installs r as the process-wide registry (nil disables).
func Enable(r *Registry) { active.Store(r) }

// Disable removes the registry; failpoints return to zero overhead.
func Disable() { active.Store(nil) }

// Enabled reports whether a registry is installed.
func Enabled() bool { return active.Load() != nil }

// Active returns the enabled registry (nil when disabled), for
// introspection such as hit/fire counters.
func Active() *Registry { return active.Load() }

// crashHandler is invoked by Crash rules. Tests and harnesses may
// replace it; the default panics with a *CrashPanic.
var crashHandler atomic.Pointer[func(Site)]

// SetCrashHandler replaces the Crash rule handler (nil restores the
// panicking default).
func SetCrashHandler(fn func(Site)) {
	if fn == nil {
		crashHandler.Store(nil)
		return
	}
	crashHandler.Store(&fn)
}

func crash(s Site) {
	if fn := crashHandler.Load(); fn != nil {
		(*fn)(s)
		return
	}
	panic(&CrashPanic{Site: s})
}

// Check runs the failpoint at site. With no registry enabled it is a
// single atomic load. Otherwise it sleeps any injected latency and
// returns any injected error (Torn behaves like Error at non-write
// sites).
func Check(site Site) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	_, err := r.eval(site, 0)
	return err
}

// CheckWrite runs the failpoint at site for an n-byte write. It returns
// how many bytes the caller should actually write and the error to
// return afterwards: (n, nil) when nothing fires, (k < n, err) for a
// torn write. Callers perform the partial write, then return the error
// without advancing their logical size — exactly the state a crash
// mid-write leaves behind.
func CheckWrite(site Site, n int) (int, error) {
	r := active.Load()
	if r == nil {
		return n, nil
	}
	return r.eval(site, n)
}

// eval walks the site's rules in order. Latency rules sleep and keep
// going; the first Error/Torn/Crash rule that fires ends the walk.
func (r *Registry) eval(site Site, n int) (int, error) {
	r.hits[site].Add(1)
	for _, st := range r.rules[site] {
		hit := st.hits.Add(1)
		if hit <= st.After {
			continue
		}
		if st.Every > 1 && (hit-st.After-1)%st.Every != 0 {
			continue
		}
		if st.Count > 0 && st.fires.Load() >= st.Count {
			continue
		}
		if st.P > 0 && st.P < 1 && st.roll() >= st.P {
			continue
		}
		st.fires.Add(1)
		r.fires[site].Add(1)
		switch st.Kind {
		case Latency:
			time.Sleep(st.Latency)
		case Crash:
			crash(site)
		case Torn:
			allow := st.TornBytes
			if allow > n {
				allow = n
			}
			if allow < 0 {
				allow = 0
			}
			return allow, st.err()
		default: // Error
			return 0, st.err()
		}
	}
	return n, nil
}

func (st *ruleState) err() error {
	if st.Err != nil {
		return st.Err
	}
	return ErrInjected
}
