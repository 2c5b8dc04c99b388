package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// Pool is a buffer pool over a Pager, built for a concurrent read path.
//
// The frame table is striped: pages hash to one of a power-of-two number
// of shards by the low bits of their PageID. Each shard's table is a
// fixed array of atomic frame pointers, open-addressed, so a cache hit
// takes no latch at all — a probe of atomic loads, one pin
// compare-and-swap, and a reference-bit store only when the bit is not
// already set. Misses, evictions, and the maintenance scans serialize on
// the shard mutex and update the table in place, one slot store at a
// time; the hot path never waits on them, and a miss copies nothing.
//
// Eviction safety without a read latch is by condemnation: the clock
// sweep claims a victim by CAS-ing its pin count from 0 to -1. A frame
// so condemned can never be pinned again — tryPin refuses negative
// counts — so the sweep owns it outright and can write it back and drop
// it. A reader that raced the sweep and lost falls to the slow path,
// misses, and reloads the page.
//
// Write-back consistency: published page versions are immutable —
// writers mutate private copies under the per-frame write latch and
// publish whole new versions (see WriteSet), and a WriteSet is the only
// thing that marks a frame dirty — so a frame observed dirty under the
// shard mutex has stable current bytes for the duration of a write-back,
// and every dirty page was logged (when the table has a WAL) before it
// became dirty. A condemned frame is unpinnable, hence equally stable.
//
// Snapshot versioning: every publish stamps the new current version with
// the next pool epoch; the displaced version is retired onto the frame's
// version chain until no registered snapshot (BeginSnapshot/EndSnapshot)
// can still read it. FetchAt resolves a page as of a snapshot epoch
// without pinning: published versions never change, and the chain only
// drops versions no live snapshot can see.
type Pool struct {
	pager    *Pager
	capacity int // frames, summed across shards
	shards   []poolShard
	mask     uint32
	bits     uint8 // log2(len(shards)): id>>bits numbers id within its shard

	// epoch is the publish clock: bumped (under verMu) once per committed
	// write set. verMu also guards scans, the registry of active snapshot
	// epochs, and serializes version publish/retire against snapshot
	// registration so a snapshot's epoch is always consistent with the
	// versions it can reach.
	epoch atomic.Uint64
	verMu sync.Mutex
	scans map[uint64]int // snapshot epoch -> active scan count

	latchAcq    atomic.Int64 // page write-latch acquisitions
	latchWaits  atomic.Int64 // ... that had to block on a held latch
	versLive    atomic.Int64 // retired versions currently retained
	versRetired atomic.Int64 // retired versions dropped (total)
	streamed    atomic.Int64 // pages read around the pool (ReadBatch)
}

// poolShard is one stripe of the frame table. slots is the table: linear
// probing from home(id), at least twice cap long so a probe always ends
// at an empty slot, never reallocated. mu serializes the writers that
// change it (miss insert, eviction, the flush/scan paths) and guards clock
// and hand. cap is this shard's slice of the pool capacity; clock is the
// ring the sweep hand walks, holding exactly the frames in slots. The
// hit/miss/evict counters are per shard — a global counter trio would
// put every shard's hit path on the same contended cache line — and the
// struct is exactly two cache lines so adjacent shards in the Pool's
// shard array never false-share a line.
type poolShard struct {
	mu    sync.Mutex
	slots []atomic.Pointer[frame]
	shift uint8 // home(id) keeps the top 32-shift bits of the hashed id
	cap   int
	clock []*frame
	hand  int
	// gone records, for evicted pages, the epoch of the version the
	// write-back persisted, so a reload is stamped with it and snapshot
	// visibility survives evict+reload (a page born at epoch 9 must not
	// become visible to a snapshot at 5 just because it round-tripped
	// through disk). It is dense, indexed by id>>Pool.bits (the shard's
	// pages are every len(shards)-th id), grown on demand; 0, the epoch
	// of a page never republished, is also what an id past its end reads.
	// Guarded by mu.
	gone   []uint64
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

// frame is one resident page. pins, ref, and dirty are atomics so the
// latch-free hit path and Unpin can update them concurrently. A pin
// count of condemnedPins marks a frame claimed by eviction; it never
// becomes pinnable again. A miss inserts the frame pinned-but-loading
// and reads from the pager with no shard lock held, so a slow read (or
// its modeled 2004-era latency) never blocks hits on other pages of the
// same shard; it holds loading for the duration, which is what a fetcher
// of the same page queues on (see awaitLoaded). loadErr is set before
// loading is released.
type frame struct {
	id PageID
	// cur is the current published version; old is the newest-first chain
	// of retired versions still visible to some registered snapshot. Both
	// are copy-on-write: a publish pushes the displaced version onto a
	// fresh chain slice before storing the new cur, so an unsynchronized
	// reader walking cur→old always sees a complete history.
	cur     atomic.Pointer[pageVersion]
	old     atomic.Pointer[[]pageVersion]
	wmu     sync.Mutex // per-page write latch (held by one WriteSet at a time)
	pins    atomic.Int32
	ref     atomic.Bool
	dirty   atomic.Bool
	loaded  atomic.Bool // fast path for awaitLoaded; set before loading is released
	loading sync.Mutex
	loadErr error
}

// pageVersion is one epoch-stamped immutable page image. Versions with
// epoch invisibleEpoch are unpublished allocations no snapshot can see.
type pageVersion struct {
	epoch uint64
	page  *Page
}

// invisibleEpoch stamps a freshly allocated, not-yet-committed page.
const invisibleEpoch = ^uint64(0)

// curPage returns the current version's page.
func (f *frame) curPage() *Page { return f.cur.Load().page }

// versionAt returns the newest version visible at snapshot epoch snap,
// or ok=false when the page has no version visible there (it was
// created after the snapshot). Safe without pin or latch: cur and old
// are copy-on-write and publish pushes to old before replacing cur.
func (f *frame) versionAt(snap uint64) (*Page, bool) {
	cv := f.cur.Load()
	if cv.epoch <= snap {
		return cv.page, true
	}
	if chain := f.old.Load(); chain != nil {
		for _, v := range *chain {
			if v.epoch <= snap {
				return v.page, true
			}
		}
	}
	return nil, false
}

// condemnedPins is the pin-count tombstone the clock sweep installs when
// it claims a victim.
const condemnedPins = -1

// touch refreshes the clock reference bit — with a read-before-write so
// steady-state hits on hot frames stay write-free.
func (f *frame) touch() {
	if !f.ref.Load() {
		f.ref.Store(true)
	}
}

// tryPin takes one pin unless the frame has been condemned by eviction,
// and touches the frame.
func (f *frame) tryPin() bool {
	for {
		p := f.pins.Load()
		if p < 0 {
			return false
		}
		if f.pins.CompareAndSwap(p, p+1) {
			f.touch()
			return true
		}
	}
}

// newFrame returns a frame for page id holding one pin, referenced, its
// current version pg stamped at epoch.
func newFrame(id PageID, pg *Page, epoch uint64) *frame {
	f := &frame{id: id}
	f.cur.Store(&pageVersion{epoch: epoch, page: pg})
	f.pins.Store(1)
	f.ref.Store(true)
	return f
}

// Shard sizing: stripes are only worth their capacity fragmentation once
// each holds a useful number of frames, and beyond the machine's
// parallelism extra stripes just spread the cache thinner.
const (
	maxPoolShards     = 16
	minFramesPerShard = 8
)

// shardCount picks the largest power-of-two shard count (≤ maxPoolShards)
// that still leaves every shard at least minFramesPerShard frames. Small
// pools degenerate to a single shard, which preserves the exact global
// capacity semantics the tests and the Table 5 cold-cache runs rely on.
func shardCount(capacity int) int {
	n := 1
	for n*2 <= maxPoolShards && capacity/(n*2) >= minFramesPerShard {
		n *= 2
	}
	return n
}

// NewPool returns a buffer pool of the given frame capacity, striped
// across shardCount(capacity) shards.
func NewPool(pager *Pager, capacity int) (*Pool, error) {
	return NewPoolShards(pager, capacity, shardCount(capacity))
}

// NewPoolShards is NewPool with an explicit shard count (a power of two,
// at most capacity). Benchmarks use it to pin striping independently of
// capacity; most callers want NewPool.
func NewPoolShards(pager *Pager, capacity, shards int) (*Pool, error) {
	if pager == nil {
		return nil, errors.New("storage: nil pager")
	}
	if capacity < 1 {
		return nil, errors.New("storage: pool capacity < 1")
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("storage: pool shards %d not a power of two", shards)
	}
	if shards > capacity {
		return nil, fmt.Errorf("storage: %d shards exceed capacity %d", shards, capacity)
	}
	b := &Pool{
		pager:    pager,
		capacity: capacity,
		shards:   make([]poolShard, shards),
		mask:     uint32(shards - 1),
		bits:     uint8(bits.TrailingZeros(uint(shards))),
	}
	for i := range b.shards {
		sh := &b.shards[i]
		// Distribute capacity so shard caps sum exactly to capacity.
		sh.cap = capacity / shards
		if i < capacity%shards {
			sh.cap++
		}
		sh.shift = 31
		for 1<<(32-sh.shift) < 2*sh.cap {
			sh.shift--
		}
		sh.slots = make([]atomic.Pointer[frame], 1<<(32-sh.shift))
	}
	b.scans = make(map[uint64]int)
	return b, nil
}

func (b *Pool) shard(id PageID) *poolShard {
	return &b.shards[uint32(id)&b.mask]
}

// goneAt returns the epoch recorded for id's last write-back, 0 when
// none was. Callers hold id's shard mutex.
func (b *Pool) goneAt(sh *poolShard, id PageID) uint64 {
	if i := uint32(id) >> b.bits; i < uint32(len(sh.gone)) {
		return sh.gone[i]
	}
	return 0
}

// setGone records e as the epoch of id's persisted version. Callers hold
// id's shard mutex.
func (b *Pool) setGone(sh *poolShard, id PageID, e uint64) {
	i := int(uint32(id) >> b.bits)
	if i >= len(sh.gone) {
		if e == 0 {
			return
		}
		sh.gone = append(sh.gone, make([]uint64, i+1-len(sh.gone))...)
	}
	sh.gone[i] = e
}

// Shards returns the stripe count (for tests and capacity planning).
func (b *Pool) Shards() int { return len(b.shards) }

// home is where id's probe run starts. The low bits of an id chose the
// shard, so the multiplicative hash takes its slot from the high ones.
func (sh *poolShard) home(id PageID) uint32 { return uint32(id) * 0x9E3779B1 >> sh.shift }

// lookup returns id's resident frame, or nil. Under sh.mu the answer is
// exact. Without it a frame found is the page's frame (or was, a moment
// ago: it may since have been condemned), but nil is only a hint — remove
// moves entries while it closes a gap, and a probe that crosses the move
// can miss a resident page — so a lock-free caller re-probes under sh.mu
// before it concludes anything from a nil.
func (sh *poolShard) lookup(id PageID) *frame {
	mask := uint32(len(sh.slots) - 1)
	for i := sh.home(id); ; i = (i + 1) & mask {
		if f := sh.slots[i].Load(); f == nil || f.id == id {
			return f
		}
	}
}

// insert adds f to the table and the clock. Callers hold sh.mu and have
// made room: the shard holds fewer than cap frames.
func (sh *poolShard) insert(f *frame) {
	mask := uint32(len(sh.slots) - 1)
	i := sh.home(f.id)
	for sh.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	sh.slots[i].Store(f)
	sh.clock = append(sh.clock, f)
}

// remove takes the frame at clock index c out of the clock (swap-remove
// keeps the ring compact) and out of the table, closing the gap it
// leaves: each later entry of the probe run that the gap would cut off
// from its home slot moves back into it, the copy stored before the
// original is overwritten, so a lock-free probe never finds a frame that
// is not resident and at worst misses one that is. Callers hold sh.mu.
func (sh *poolShard) remove(c int) {
	f := sh.clock[c]
	last := len(sh.clock) - 1
	sh.clock[c] = sh.clock[last]
	sh.clock[last] = nil
	sh.clock = sh.clock[:last]

	mask := uint32(len(sh.slots) - 1)
	i := sh.home(f.id)
	for sh.slots[i].Load() != f {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		g := sh.slots[j].Load()
		if g == nil {
			break
		}
		if (j-sh.home(g.id))&mask >= (j-i)&mask {
			sh.slots[i].Store(g)
			i = j
		}
	}
	sh.slots[i].Store(nil)
}

// Fetch returns the page with the given id, pinned. Callers must Unpin.
// The hit path is latch-free: a probe of the shard's table, a pin CAS,
// and the per-shard hit counter.
func (b *Pool) Fetch(id PageID) (*Page, error) {
	f, err := b.pinFrame(id)
	if err != nil {
		return nil, err
	}
	return f.curPage(), nil
}

// pinFrame returns the page's frame, pinned and loaded. Callers must
// release the pin (Unpin, or f.pins.Add(-1)).
func (b *Pool) pinFrame(id PageID) (*frame, error) {
	sh := b.shard(id)
	if f := sh.lookup(id); f != nil && f.tryPin() {
		sh.hits.Add(1)
		return b.awaitLoaded(f)
	}
	return b.fetchSlow(sh, id)
}

// FetchAt resolves the page as of snapshot epoch snap: the newest
// version with epoch ≤ snap. ok=false (with a nil page) means the page
// has no version visible at snap — it was created by a write that
// committed after the snapshot — and the caller should treat it as
// absent. The returned page is NOT pinned: published versions are
// immutable and chain pruning only drops versions no registered
// snapshot can read, so holding the pointer is enough.
func (b *Pool) FetchAt(id PageID, snap uint64) (*Page, bool, error) {
	sh := b.shard(id)
	if f := sh.lookup(id); f != nil && f.loaded.Load() {
		sh.hits.Add(1)
		// Every SELECT reads through here, not through tryPin: this is
		// where a page it re-reads earns its second chance.
		f.touch()
		pg, vis := f.versionAt(snap)
		return pg, vis, nil
	}
	f, err := b.pinFrame(id)
	if err != nil {
		return nil, false, err
	}
	pg, vis := f.versionAt(snap)
	f.pins.Add(-1)
	return pg, vis, nil
}

// Epoch returns the current publish epoch. A reader that uses it as an
// unregistered snapshot must be prepared to retry with a registered one
// (BeginSnapshot) if the version it needs is pruned underneath it.
func (b *Pool) Epoch() uint64 { return b.epoch.Load() }

// BeginSnapshot registers a snapshot at the current epoch. Until the
// matching EndSnapshot, every page version visible at the returned
// epoch stays reachable through FetchAt.
func (b *Pool) BeginSnapshot() uint64 {
	b.verMu.Lock()
	e := b.epoch.Load()
	b.scans[e]++
	b.verMu.Unlock()
	return e
}

// EndSnapshot retires a registration made by BeginSnapshot.
func (b *Pool) EndSnapshot(e uint64) {
	b.verMu.Lock()
	if n := b.scans[e]; n <= 1 {
		delete(b.scans, e)
	} else {
		b.scans[e] = n - 1
	}
	b.verMu.Unlock()
}

// minScanLocked returns the oldest registered snapshot epoch, or the
// maximum epoch when none is registered. Callers hold verMu.
func (b *Pool) minScanLocked() uint64 {
	min := ^uint64(0)
	for e := range b.scans {
		if e < min {
			min = e
		}
	}
	return min
}

// retireLocked pushes pv — the version a publish at newEpoch just
// displaced — onto f's chain, then drops every chain version no
// registered snapshot can still read. A version whose next-newer epoch
// is ≤ the oldest registered snapshot is dead: every snapshot sees the
// newer one. Callers hold verMu.
func (b *Pool) retireLocked(f *frame, pv pageVersion, newEpoch uint64) {
	min := b.minScanLocked()
	var prev []pageVersion
	if c := f.old.Load(); c != nil {
		prev = *c
	}
	var next []pageVersion
	if newEpoch > min {
		next = append(make([]pageVersion, 0, len(prev)+1), pv)
		b.versLive.Add(1)
	} else {
		b.versRetired.Add(1)
	}
	nextNewer := pv.epoch
	for _, v := range prev {
		if nextNewer > min {
			next = append(next, v)
		} else {
			b.versLive.Add(-1)
			b.versRetired.Add(1)
		}
		nextNewer = v.epoch
	}
	if len(next) == 0 {
		f.old.Store(nil)
	} else {
		f.old.Store(&next)
	}
}

// pruneChainLocked re-evaluates f's chain against the registered
// snapshots (as retireLocked does at publish time, but without a new
// version) and reports whether the chain emptied. Eviction uses it: a
// frame whose chain still feeds a live snapshot must stay resident.
// Callers hold verMu.
func (b *Pool) pruneChainLocked(f *frame) bool {
	c := f.old.Load()
	if c == nil {
		return true
	}
	min := b.minScanLocked()
	var next []pageVersion
	nextNewer := f.cur.Load().epoch
	for _, v := range *c {
		if nextNewer > min {
			next = append(next, v)
		} else {
			b.versLive.Add(-1)
			b.versRetired.Add(1)
		}
		nextNewer = v.epoch
	}
	if len(next) == 0 {
		f.old.Store(nil)
		return true
	}
	f.old.Store(&next)
	return false
}

// WriteStats reports concurrent-write-path counters: page write-latch
// acquisitions and contended waits, and snapshot versions currently
// retained / retired in total.
func (b *Pool) WriteStats() (latchAcq, latchWaits, versLive, versRetired int64) {
	return b.latchAcq.Load(), b.latchWaits.Load(), b.versLive.Load(), b.versRetired.Load()
}

// fetchSlow is the miss path (also taken in the vanishingly rare case of
// losing a race with eviction, or of a probe that crossed one): re-probe
// under the shard mutex, then load the page with no lock held. A miss on
// a full stripe changes the table twice, in place — the victim's slot
// and the newcomer's — and allocates the frame, its first version and
// its page, nothing else. The victim's page buffer is not reused: an
// unpinned FetchAt reader may still hold it.
func (b *Pool) fetchSlow(sh *poolShard, id PageID) (*frame, error) {
	sh.mu.Lock()
	// Another goroutine may have loaded the page while we took the mutex.
	// Under sh.mu a frame in the table is never condemned — the sweep
	// removes its victim before releasing the mutex — so the pin must
	// succeed.
	if f := sh.lookup(id); f != nil && f.tryPin() {
		sh.mu.Unlock()
		sh.hits.Add(1)
		return b.awaitLoaded(f)
	}
	sh.misses.Add(1)
	if len(sh.clock) >= sh.cap {
		if err := sh.evictOne(b); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
	}
	// Insert the frame pinned but still loading, then read with no lock
	// held: hits on the shard's other pages proceed during the I/O, and
	// concurrent fetchers of this page pin the frame and queue on loading.
	// The reload is stamped with the epoch recorded at eviction so
	// snapshot visibility is unchanged by the disk round-trip. The page
	// is not Init'ed: the read overwrites all of it, and a frame whose
	// read fails is dropped unread.
	f := newFrame(id, new(Page), b.goneAt(sh, id))
	f.loading.Lock()
	sh.insert(f)
	sh.mu.Unlock()

	// The loading-frame fill is its own failpoint, upstream of the pager
	// read: a fault here exercises the stillborn-frame unwind below.
	if err := fault.Check(fault.PoolLoad); err != nil {
		f.loadErr = fmt.Errorf("storage: loading page %d: %w", id, wrapIO(err))
	} else {
		f.loadErr = b.pager.Read(id, f.curPage())
	}
	if f.loadErr == nil {
		f.loaded.Store(true)
	}
	f.loading.Unlock()
	if f.loadErr != nil {
		// Evict the stillborn frame so a later fetch retries the read.
		// Waiters hold the frame pointer and observe loadErr directly.
		sh.mu.Lock()
		sh.remove(slices.Index(sh.clock, f))
		sh.mu.Unlock()
		return nil, f.loadErr
	}
	return f, nil
}

// awaitLoaded blocks until f's contents are loaded. The atomic fast path
// keeps the common case — a long-resident frame — free of anything else;
// a fetcher that finds the frame still loading waits its turn on the
// mutex the loader holds. On load failure the pin taken by the caller is
// returned directly to the frame: the loader removes it from the shard,
// so Unpin would not find it.
func (b *Pool) awaitLoaded(f *frame) (*frame, error) {
	if f.loaded.Load() {
		return f, nil
	}
	f.loading.Lock()
	err := f.loadErr
	f.loading.Unlock()
	if err != nil {
		f.pins.Add(-1)
		return nil, err
	}
	return f, nil
}

// allocateFrame creates a new page via the pager and returns its frame
// pinned, current version stamped at epoch: a write set allocates at the
// invisible epoch and publishes at commit (see WriteSet.Allocate). The
// frame enters the table before the pager counts the page, so a scan
// bounded by NumPages finds it there.
func (b *Pool) allocateFrame(epoch uint64) (*frame, error) {
	var f *frame
	_, err := b.pager.Allocate(func(id PageID) error {
		sh := b.shard(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if len(sh.clock) >= sh.cap {
			if err := sh.evictOne(b); err != nil {
				return err
			}
		}
		f = newFrame(id, NewPage(), epoch)
		f.loaded.Store(true)
		sh.insert(f)
		return nil
	})
	return f, err
}

// Unpin releases one pin on the page. Like the hit path it is
// latch-free: a pinned frame is always in the table (eviction only
// claims unpinned frames), and takes the mutex only to be sure of a page
// its probe did not find.
func (b *Pool) Unpin(id PageID) error {
	sh := b.shard(id)
	f := sh.lookup(id)
	if f == nil {
		sh.mu.Lock()
		f = sh.lookup(id)
		sh.mu.Unlock()
	}
	if f == nil {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	for {
		p := f.pins.Load()
		if p <= 0 {
			return fmt.Errorf("storage: unpin of unpinned page %d", id)
		}
		if f.pins.CompareAndSwap(p, p-1) {
			return nil
		}
	}
}

// evictOne runs the clock sweep until a victim is evicted: pinned frames
// are skipped, referenced frames lose their second chance, and the first
// frame whose pin count CASes from 0 to the condemned tombstone is
// written back (if dirty) and dropped. The CAS is what makes the
// latch-free hit path safe: a frame is either pinned before the sweep
// claims it (the sweep skips it) or condemned first (tryPin refuses it
// and the reader reloads). Callers hold the shard mutex.
func (sh *poolShard) evictOne(b *Pool) error {
	// Give up only after a whole lap on which no frame could go: pinned
	// and held count consecutive frames found pinned or feeding a
	// snapshot, apart, so the error can name both. A demotion restarts
	// them — that frame is a victim on its next visit unless a reader
	// claims it first — so a frame pinned on one lap and merely
	// referenced on the next is still found. Lock-free hits keep setting
	// reference bits while the sweep holds sh.mu, so the walk is also
	// capped at four laps (two of demotions, one of pins, one spare):
	// past that the readers are outrunning the hand and the caller gets
	// the error instead of a spin under the shard mutex.
	n := len(sh.clock)
	pinned, held := 0, 0
	for steps := 0; pinned+held < n && steps < 4*n; sh.hand, steps = sh.hand+1, steps+1 {
		if sh.hand >= len(sh.clock) {
			sh.hand = 0
		}
		f := sh.clock[sh.hand]
		if f.pins.Load() > 0 {
			pinned++
			continue
		}
		if f.ref.CompareAndSwap(true, false) {
			pinned, held = 0, 0
			continue
		}
		// A frame whose version chain still feeds a registered snapshot
		// must stay resident: disk holds only the current version, so
		// evicting it would lose the older images. Prune first — the
		// chain usually empties as soon as the old scans retire.
		// (verMu nests inside sh.mu; the publish path takes verMu alone.)
		if f.old.Load() != nil {
			b.verMu.Lock()
			empty := b.pruneChainLocked(f)
			b.verMu.Unlock()
			if !empty {
				held++
				continue
			}
		}
		if !f.pins.CompareAndSwap(0, condemnedPins) {
			// A reader pinned the frame between the checks; spare it.
			pinned++
			continue
		}
		if err := sh.dropFrameAt(sh.hand, b); err != nil {
			return err
		}
		sh.evicts.Add(1)
		return nil
	}
	return fmt.Errorf("%w: no frame of a %d-frame stripe of the %d-page pool can go: "+
		"%d pinned (a statement pins every page it writes until it commits: write fewer rows per statement, or raise engine.WithPoolPages), "+
		"%d holding page versions a registered snapshot still reads (they go when its scan ends: run fewer long scans beside writers, or raise engine.WithPoolPages)",
		ErrPoolExhausted, n, b.capacity, pinned, held)
}

// dropFrameAt writes back the frame at clock index i if dirty and
// removes it from the shard. The frame must already be condemned (or
// otherwise unreachable), so its bytes are stable for the write-back. If
// the write-back fails, the frame is un-condemned and stays resident: its
// in-memory bytes are the only copy of the dirty data, so it must remain
// pinnable (serving reads in degraded mode) until a later write-back
// succeeds.
func (sh *poolShard) dropFrameAt(i int, b *Pool) error {
	f := sh.clock[i]
	if f.dirty.Load() {
		if err := b.pager.Write(f.id, f.curPage()); err != nil {
			// Nobody can race this CAS: condemned frames refuse pins, and
			// the sweep owns the condemnation under sh.mu.
			f.pins.CompareAndSwap(condemnedPins, 0)
			f.ref.Store(true) // second chance; retry other victims first
			return err
		}
	}
	// The eviction sweep only condemns frames whose chains pruned empty,
	// but DropAll condemns regardless: account any version chain going
	// down with the frame so engine_snapshot_versions_live cannot drift.
	if c := f.old.Load(); c != nil {
		n := int64(len(*c))
		b.versLive.Add(-n)
		b.versRetired.Add(n)
		f.old.Store(nil)
	}
	// Remember the persisted version's epoch so a reload is stamped with
	// it. An unpublished invisible frame persisted nothing a snapshot can
	// miss: it records 0, as a page never republished does.
	e := f.cur.Load().epoch
	if e == invisibleEpoch {
		e = 0
	}
	b.setGone(sh, f.id, e)
	sh.remove(i)
	return nil
}

// FlushAll writes every dirty resident page back to the pager. Callers
// must exclude publishers (the engine holds the table lock exclusively;
// statements hold it shared).
func (b *Pool) FlushAll() error {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for _, f := range sh.clock {
			if !f.dirty.Load() {
				continue
			}
			if err := b.pager.Write(f.id, f.curPage()); err != nil {
				sh.mu.Unlock()
				return err
			}
			f.dirty.Store(false)
		}
		sh.mu.Unlock()
	}
	return nil
}

// Streamed returns how many pages ReadBatch read around the pool.
func (b *Pool) Streamed() int64 { return b.streamed.Load() }

// Stats reports cache behaviour for Table 5 accounting, summed across
// shards (counters are sharded to keep hit paths off a shared line).
func (b *Pool) Stats() (hits, misses, evicts int64) {
	for i := range b.shards {
		sh := &b.shards[i]
		hits += sh.hits.Load()
		misses += sh.misses.Load()
		evicts += sh.evicts.Load()
	}
	return hits, misses, evicts
}

// DropAll evicts every unpinned page (writing back dirty ones). It
// simulates a cold cache for the Table 5 base-cost measurement.
func (b *Pool) DropAll() error {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for j := 0; j < len(sh.clock); {
			if !sh.clock[j].pins.CompareAndSwap(0, condemnedPins) {
				j++ // pinned (or raced with a pinner): keep it
				continue
			}
			if err := sh.dropFrameAt(j, b); err != nil {
				sh.mu.Unlock()
				return err
			}
			// Swap-remove moved a new frame into j; revisit it.
		}
		sh.hand = 0
		sh.mu.Unlock()
	}
	return nil
}

// sortPageImages orders images by PageID (insertion sort: dirty sets per
// statement are small).
func sortPageImages(ims []PageImage) {
	for i := 1; i < len(ims); i++ {
		for j := i; j > 0 && ims[j].ID < ims[j-1].ID; j-- {
			ims[j], ims[j-1] = ims[j-1], ims[j]
		}
	}
}

// Resident returns the number of pages currently cached.
func (b *Pool) Resident() int {
	n := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		n += len(sh.clock)
		sh.mu.Unlock()
	}
	return n
}

// Pinned returns the total pin count across resident frames. A correctly
// balanced caller sees zero between statements; the engine's leak-check
// tests assert exactly that.
func (b *Pool) Pinned() int {
	n := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for _, f := range sh.clock {
			if p := f.pins.Load(); p > 0 {
				n += int(p)
			}
		}
		sh.mu.Unlock()
	}
	return n
}
