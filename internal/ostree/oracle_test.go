package ostree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// oracle is the brute-force reference: a map, sorted from scratch for
// every question by the contract's own words — heavier first, then lower
// id — on the float weights, not on the index's integer keys.
type oracle map[uint64]float64

type pair struct {
	weight float64
	id     uint64
}

func (o oracle) sorted() []pair {
	ps := make([]pair, 0, len(o))
	for id, w := range o {
		ps = append(ps, pair{w, id})
	}
	slices.SortFunc(ps, func(a, b pair) int {
		if a.weight > b.weight || a.weight == b.weight && a.id < b.id {
			return -1
		}
		return 1
	})
	return ps
}

// pairs is the oracle in the order FromWeights wants it.
func (o oracle) pairs() []Pair {
	ps := make([]Pair, 0, len(o))
	for id, w := range o {
		ps = append(ps, Pair{id, w})
	}
	slices.SortFunc(ps, func(a, b Pair) int { return cmp.Compare(a.ID, b.ID) })
	return ps
}

// rank is id's 1-based rank by counting, without a sort.
func (o oracle) rank(id uint64) int {
	r, w := 1, o[id]
	for other, ow := range o {
		if ow > w || ow == w && other < id {
			r++
		}
	}
	return r
}

// absentID lies in none of the shapes idOf draws from.
const absentID = 1<<40 + 7

// checkAgainst compares every public read with the oracle and then the
// rank side and the id table with their own invariants.
func checkAgainst(t *testing.T, tr *Tree, o oracle, step int) {
	t.Helper()
	want := o.sorted()
	if tr.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, oracle %d", step, tr.Len(), len(want))
	}
	w, ok := tr.MaxWeight()
	if ok != (len(want) > 0) || ok && w != want[0].weight {
		t.Fatalf("step %d: MaxWeight = %v, %v; oracle %v", step, w, ok, want)
	}
	// MaxWeight drained the queue and left the delta unfolded: the
	// positions are head − out + in, which must be the first npos of the
	// oracle's order, and the delta within its bound.
	npos := tr.npos()
	if len(tr.queue) != 0 || len(tr.in)+len(tr.out) > tr.foldAt(2*len(want)) { // a batch moves each id once
		t.Fatalf("step %d: queue %d, delta %d+%d over a head of %d", step, len(tr.queue), len(tr.in), len(tr.out), len(tr.head))
	}
	checkPositions(t, tr, want, step)
	// Past the horizon Rank counts over the id table and KthID sorts the
	// ids there: every rank is read in front of it, a stride behind it.
	// The Ranks come first, read through the delta; KthID folds it.
	stride := max(1, (len(want)-npos)/8)
	read := func(i int) bool { return i <= npos || (i-npos)%stride == 0 || i == len(want)-1 }
	for i, e := range want {
		if !read(i) {
			continue
		}
		if r, ok := tr.Rank(e.id); !ok || r != i+1 {
			t.Fatalf("step %d: Rank(%d) = %d, %v; oracle %d", step, e.id, r, ok, i+1)
		}
	}
	for i, e := range want {
		if !read(i) {
			continue
		}
		if id, ok := tr.KthID(i + 1); !ok || id != e.id {
			t.Fatalf("step %d: KthID(%d) = %d, %v; oracle %d", step, i+1, id, ok, e.id)
		}
	}
	if r, ok := tr.Rank(absentID); ok || r != len(want)+1 || tr.Contains(absentID) {
		t.Fatalf("step %d: absent Rank = %d, %v", step, r, ok)
	}
	if _, ok := tr.KthID(len(want) + 1); ok {
		t.Fatalf("step %d: KthID past the end is ok", step)
	}
	n := 0
	tr.Ascend(func(rank int, id uint64, w float64) bool {
		if rank != n+1 || n >= len(want) || want[n] != (pair{w, id}) {
			t.Fatalf("step %d: Ascend visit %d = rank %d (%v, %d); oracle %v", step, n, rank, w, id, want)
		}
		n++
		return true
	})
	if n != len(want) {
		t.Fatalf("step %d: Ascend visited %d of %d", step, n, len(want))
	}

	// The reads above folded the delta: the head alone is the positions,
	// as many as before.
	if len(tr.in) != 0 || len(tr.out) != 0 || len(tr.head) != npos {
		t.Fatalf("step %d: after the reads delta %d+%d, head %d; %d positions before", step, len(tr.in), len(tr.out), len(tr.head), npos)
	}
	checkPositions(t, tr, want, step)

	// The id table: the same ids ascending, each with the oracle's weight
	// and no queued move, in non-empty bounded blocks behind their first ids.
	ids := &tr.ids
	if ids.n != len(want) || len(ids.first) != len(ids.blocks) || len(ids.blocks) > 2*len(want)/minBlock+1 {
		t.Fatalf("step %d: id table n %d, first %d, blocks %d for %d ids", step, ids.n, len(ids.first), len(ids.blocks), len(want))
	}
	byID := o.pairs()
	seen := 0
	for b, blk := range ids.blocks {
		if len(blk) == 0 || len(blk) > maxBlock || cap(blk) < maxBlock || ids.first[b] != blk[0].id {
			t.Fatalf("step %d: id block %d has len %d cap %d first %d", step, b, len(blk), cap(blk), ids.first[b])
		}
		for i, s := range blk {
			if seen+i >= len(byID) || s.id != byID[seen+i].ID || s.weight != byID[seen+i].Weight || s.queued != 0 {
				t.Fatalf("step %d: id block %d slot %d = %+v, oracle %+v", step, b, i, s, byID)
			}
		}
		seen += len(blk)
	}
	// Descending ids: every lookup arrives against the finger's direction.
	for i := len(byID) - 1; i >= 0; i-- {
		p := byID[i]
		if w, ok := tr.Weight(p.ID); !ok || w != p.Weight {
			t.Fatalf("step %d: Weight(%d) = %v, %v; oracle %v", step, p.ID, w, ok, p.Weight)
		}
	}
}

// checkPositions holds the rank side, with the queue drained, to the
// oracle: head, in and out sorted without repeats, out within head, and
// head − out + in a prefix of the oracle's order — all of it without a
// horizon, the ids before the horizon with one. It counts entries as a
// multiset, on the float weights, and never calls the index's merge.
func checkPositions(t *testing.T, tr *Tree, want []pair, step int) {
	t.Helper()
	count := map[entry]int{}
	for _, part := range []struct {
		es   []entry
		sign int
	}{{tr.head, 1}, {tr.in, 1}, {tr.out, -1}} {
		for i, e := range part.es {
			if i > 0 && (e.before(part.es[i-1]) != 0 || e == part.es[i-1]) {
				t.Fatalf("step %d: %v out of order at %d: %v", step, part.es, i, e)
			}
			count[e] += part.sign
		}
	}
	var live []pair
	for e, c := range count {
		switch c {
		case 0:
		case 1:
			live = append(live, pair{weightOf(e.key), e.id})
		default:
			t.Fatalf("step %d: entry %v counted %d times (out not within head)", step, e, c)
		}
	}
	slices.SortFunc(live, func(a, b pair) int {
		if a.weight > b.weight || a.weight == b.weight && a.id < b.id {
			return -1
		}
		return 1
	})
	if len(live) != tr.npos() || len(live) > len(want) {
		t.Fatalf("step %d: %d positions, npos %d, %d ids", step, len(live), tr.npos(), len(want))
	}
	for i, p := range live {
		if p != want[i] {
			t.Fatalf("step %d: position %d = %v, oracle %v", step, i, p, want[i])
		}
	}
	if !tr.cut && len(live) != len(want) {
		t.Fatalf("step %d: %d of %d ids hold positions without a horizon", step, len(live), len(want))
	}
	sortsBefore := func(p pair) bool { return entry{keyOf(p.weight), p.id}.before(tr.hz) != 0 }
	if tr.cut && (len(live) > 0 && !sortsBefore(want[len(live)-1]) || len(live) < len(want) && sortsBefore(want[len(live)])) {
		t.Fatalf("step %d: the horizon %v does not follow the first %d of %v", step, tr.hz, len(live), want)
	}
}

// renormInc is an increment just past the tracker's renormalisation
// threshold; dividing by it at run time, as the tracker does, rounds
// 1.159 and its upper neighbour to the same value. (The constant
// expression 1/(1e100+159e88) is exact and rounds differently.)
var renormInc = 1e100 + 159e88

// scales are ScaleAll factors: the renormalisation-sized one rounds some
// adjacent weights together, the subnormal one nearly all of them.
var scales = []float64{0.5, 1 / renormInc, 3, 1e-320}

// idOf draws an id from the shapes raw int64 keys cast to uint64 take —
// dense and ascending, spaced 2⁴⁰ apart, negative keys just under 2⁶⁴,
// and the two ends of the range — out of a domain small enough to repeat.
func idOf(sel uint16) uint64 {
	k := uint64(sel % 233)
	switch sel / 233 % 4 {
	case 0:
		return k + 1
	case 1:
		return (k + 1) << 40
	case 2:
		return uint64(-int64(k + 1))
	}
	return (k % 2) * math.MaxUint64
}

// limitOf draws a RankUpTo limit from lim: small for odd lim, otherwise
// a share of n running to about twice it, so that horizons are set, cut
// back, rebuilt and dropped between the writes.
func limitOf(lim uint8, n int) int {
	if lim&1 != 0 {
		return 1 + int(lim>>1)%16
	}
	return 1 + int(lim>>1)*(n+1)/64
}

// applyOp decodes one operation and applies it to both sides. Weights
// come from a small set (heavy ties, neighbours one ulp apart). Reads
// inside an operation are checked on the spot: they are what meets a
// finger left behind by the write before them. A nonzero lim ends the
// operation with capped ranks: RankUpTo of four ids, limit drawn from
// lim, which must be min(rank, limit).
func applyOp(tr *Tree, o oracle, op, idSel uint16, wSel, lim uint8) {
	if lim != 0 {
		defer func() {
			limit := limitOf(lim, tr.Len())
			for k := uint16(0); k < 4; k++ {
				id := idOf(idSel + k*41)
				want, tracked := len(o)+1, false
				if _, tracked = o[id]; tracked {
					want = min(o.rank(id), limit)
				}
				if r, ok := tr.RankUpTo(id, limit); r != want || ok != tracked {
					panic(fmt.Sprintf("RankUpTo(%d, %d) = %d, %v; oracle %d, %v", id, limit, r, ok, want, tracked))
				}
			}
		}()
	}
	id := idOf(idSel)
	w := float64(wSel%16) + 1.159
	if wSel&16 != 0 {
		w = math.Nextafter(w, 10)
	}
	if cur, ok := o[id]; ok && wSel&32 != 0 {
		w += cur // the tracker's shape: weights only grow
	}
	switch op % 19 {
	case 0, 1, 2:
		tr.Upsert(id, w)
		o[id] = w
	case 3, 4, 5:
		// Always queued (6–8 let a bit of wSel decide). The op numbering
		// is frozen so that saved fuzz corpora keep decoding.
		tr.Add(id, w, true)
		o[id] += w
	case 6, 7, 8:
		tr.Add(id, w, wSel&64 != 0)
		o[id] += w
	case 9, 10, 11:
		_, want := o[id]
		if got := tr.Delete(id); got != want {
			panic("Delete disagrees with the oracle")
		}
		delete(o, id)
	case 12:
		// Drain a run of neighbouring ranks: empties and merges blocks.
		for k := 0; k < int(wSel); k++ {
			victim, ok := tr.KthID(1 + int(idSel)%max(tr.Len(), 1))
			if !ok {
				break
			}
			tr.Delete(victim)
			delete(o, victim)
		}
	case 13:
		f := scales[int(wSel)%len(scales)]
		tr.ScaleAll(f)
		for id, w := range o {
			o[id] = w * f
		}
	case 14, 15, 16:
		// A scan's batch: ascending neighbours of one shape each take the
		// same increment (quoted first when op says so), and every few steps
		// something else cuts in — a probe of an unrelated id, a Delete
		// behind the run, a rescale.
		for k := uint16(0); k < uint16(wSel%48); k++ {
			next := idOf(idSel - idSel%233 + (idSel%233+k)%233)
			if _, tracked := o[next]; tracked && op%19 == 16 {
				if r, ok := tr.Rank(next); !ok || r != o.rank(next) {
					panic("Rank inside a run disagrees with the oracle")
				}
			}
			tr.Add(next, w, op%19 != 14)
			o[next] += w
			switch probe := idOf(idSel*31 + k*7); k % 5 {
			case 1:
				if pw, ok := tr.Weight(probe); pw != o[probe] || ok != tr.Contains(probe) {
					panic("Weight inside a run disagrees with the oracle")
				}
			case 2:
				if _, tracked := o[probe]; tracked && wSel&64 != 0 {
					tr.Delete(probe)
					delete(o, probe)
				}
			case 3:
				if wSel&128 != 0 && k == 8 {
					tr.ScaleAll(0.5)
					for id, w := range o {
						o[id] = w * 0.5
					}
					w *= 0.5
				}
			}
		}
	case 17, 18:
		// A bulk rebuild, as Import does, whose id-table finger and slots'
		// head indices point anywhere, and whose fold buffer holds junk: a
		// finger and an index are hints, a fold writes its buffer from the
		// start, and no value of either may matter.
		nt := FromWeights(o.pairs())
		nt.ids.fb, nt.ids.fi = int(idSel%7), int(wSel)
		for b, blk := range nt.ids.blocks {
			for i := range blk {
				blk[i].at = uint32(int(idSel)*b+int(wSel)*i) % uint32(2*len(nt.head)+3)
			}
		}
		nt.spare = []entry{{uint64(idSel), uint64(wSel)}, {0, math.MaxUint64}}
		*tr = *nt
	}
}

func TestDifferentialAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, o := New(), oracle{}
		for step := 0; step < 6000; step++ {
			// Capped ranks on half the steps: the rest run against a
			// horizon left where the last one put it, or dropped since.
			lim := uint8(rng.Intn(256))
			if rng.Intn(2) == 0 {
				lim = 0
			}
			applyOp(tr, o, uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)), lim)
			// Check every step while small, then at a stride that still
			// lands between deferred writes and around splits.
			if step < 300 || step%7 == 0 {
				checkAgainst(t, tr, o, step)
			}
		}
		checkAgainst(t, tr, o, -1)
	}
}

// FuzzTreeOps drives the same operations from fuzzer bytes: the first
// byte prefills 0 to 1,050 operations unchecked (from 750 on, the first
// read drains a queue whose long moves pass the delta's bound, and it
// folds), every following five bytes are one operation (op, id low, id
// high, capped-rank limit, weight), and every step is checked.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 5, 0, 1, 0, 17, 15, 0, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{2, 14, 0, 40, 0, 255, 14, 0, 0, 0, 255, 15, 0, 0, 0, 1})
	// A horizon set, crossed by a scan's batch, rebuilt for a larger
	// limit, cut back for a small one, dropped by a rescale.
	f.Add([]byte{3, 0, 3, 0, 2, 4, 15, 0, 0, 0, 47, 5, 1, 0, 120, 40, 16, 2, 0, 3, 33, 13, 0, 0, 0, 1, 6, 9, 0, 5, 70})
	// A delta past its bound: the capped read of the first step drains the
	// prefill's queued moves, long ones among them, as one batch, and the
	// delta folds before the horizon is set; two scan batches follow.
	f.Add([]byte{7, 15, 200, 0, 9, 47, 16, 100, 1, 0, 111})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+5*400 {
			return
		}
		tr, o := New(), oracle{}
		for i := 0; i < int(data[0]%8)*150; i++ {
			applyOp(tr, o, uint16(i%9), uint16(i*7), uint8(i*13), 0)
		}
		for step, ops := 0, data[1:]; len(ops) >= 5; step, ops = step+1, ops[5:] {
			applyOp(tr, o, uint16(ops[0]), uint16(ops[1])|uint16(ops[2])<<8, ops[4], ops[3])
			checkAgainst(t, tr, o, step)
		}
	})
}

// TestScaleAllReordersNewTies is the regression for a ghost entry: a
// renormalisation-sized factor rounds two weights one ulp apart to the
// same value, whose tie must then break by id. Keeping the pre-scale
// order made Rank(2) report absent and the next Upsert(2) leave its old
// entry behind.
func TestScaleAllReordersNewTies(t *testing.T) {
	const w = 1.159
	f := 1 / renormInc
	if math.Nextafter(w, 10)*f != w*f {
		t.Fatal("the factor no longer rounds the two weights together")
	}
	tr := New()
	tr.Upsert(5, math.Nextafter(w, 10))
	tr.Upsert(2, w)
	if r, _ := tr.Rank(5); r != 1 {
		t.Fatalf("before scaling: Rank(5) = %d", r)
	}
	tr.ScaleAll(f)
	for want, id := range []uint64{2, 5} {
		if r, ok := tr.Rank(id); !ok || r != want+1 {
			t.Fatalf("after scaling: Rank(%d) = %d, %v; want %d", id, r, ok, want+1)
		}
	}
	tr.Upsert(2, 1)
	visits := 0
	tr.Ascend(func(int, uint64, float64) bool { visits++; return true })
	if visits != tr.Len() {
		t.Fatalf("Ascend visits %d entries, Len = %d: a ghost entry", visits, tr.Len())
	}
}

// A new tie can reorder entries far apart in the head; the re-sort must
// reach them.
func TestScaleAllReordersAcrossBlocks(t *testing.T) {
	const w = 1.159
	tr, o := New(), oracle{}
	// Descending ids at alternating one-ulp-apart weights: after scaling
	// every entry ties, and the order by id is the reverse of the blocks'.
	for i := 0; i < 3*maxBlock; i++ {
		id, wi := uint64(10_000-i), w
		if i%2 == 0 {
			wi = math.Nextafter(w, 10)
		}
		tr.Upsert(id, wi)
		o[id] = wi
	}
	checkAgainst(t, tr, o, 0)
	f := 1 / renormInc
	tr.ScaleAll(f)
	for id, wi := range o {
		o[id] = wi * f
	}
	checkAgainst(t, tr, o, 1)
}

func TestFromWeightsMatchesUpserts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, fillBlock, fillBlock + 1, 5 * maxBlock} {
		o := oracle{}
		for i := 0; i < n; i++ {
			o[idOf(uint16(rng.Intn(1<<16)))+uint64(rng.Intn(4*n))<<8] = float64(rng.Intn(20))
		}
		tr := FromWeights(o.pairs())
		checkAgainst(t, tr, o, n)
		// The bulk-built blocks, rank and id, take writes like any others.
		for i := 0; i < 3*maxBlock; i++ {
			applyOp(tr, o, uint16(rng.Intn(12)), uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		}
		checkAgainst(t, tr, o, -n)
	}
}

// The integer key must reverse the weight order exactly and round-trip
// every weight, across signs, zeros, subnormals and infinities.
func TestKeyOfReversesWeightOrder(t *testing.T) {
	ws := []float64{math.Inf(1), math.MaxFloat64, 1e100, 2, math.Nextafter(1, 2), 1, 0.5,
		math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64, -1, -1e100, math.Inf(-1)}
	for i, w := range ws {
		if got := weightOf(keyOf(w)); got != w {
			t.Fatalf("weightOf(keyOf(%v)) = %v", w, got)
		}
		if i > 0 && keyOf(ws[i-1]) >= keyOf(w) {
			t.Fatalf("keyOf(%v) = %#x is not below keyOf(%v) = %#x", ws[i-1], keyOf(ws[i-1]), w, keyOf(w))
		}
	}
	if keyOf(math.Copysign(0, -1)) != keyOf(0) {
		t.Fatal("-0 and +0 must tie")
	}
}

// Draining from either end walks every id block through underfull,
// merged and dropped, including the final block losing its own last
// entry, and empties the head from its first and its last entry.
func TestDrainFromBothEnds(t *testing.T) {
	for _, fromTail := range []bool{true, false} {
		tr, o := New(), oracle{}
		for i := 0; i < 4*maxBlock; i++ {
			tr.Upsert(uint64(i), float64(i%50))
			o[uint64(i)] = float64(i % 50)
		}
		for step := 0; tr.Len() > 0; step++ {
			k := 1
			if fromTail {
				k = tr.Len()
			}
			id, _ := tr.KthID(k)
			tr.Delete(id)
			delete(o, id)
			checkAgainst(t, tr, o, step)
		}
	}
}

// The id table must cost the same whatever the ids look like: 24-byte
// slots in packed blocks, not pages indexed by id. 100k ids spaced 2⁴⁰
// apart, bulk-built and added one by one in ascending order, may take at
// most 32 bytes each beyond the rank side.
func TestIDTableMemoryIgnoresSpacing(t *testing.T) {
	const n = 100_000
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{uint64(i+1) << 40, float64(1 + i%5)}
	}
	builds := map[string]func() *Tree{
		"FromWeights": func() *Tree { return FromWeights(ps) },
		"ascending adds": func() *Tree {
			tr := New()
			for _, p := range ps {
				tr.Add(p.ID, p.Weight, false)
			}
			return tr
		},
	}
	for name, build := range builds {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		rank := 0
		for _, es := range [][]entry{tr.head, tr.spare, tr.in, tr.out} {
			rank += cap(es) * 16
		}
		grown := int(after.HeapAlloc) - int(before.HeapAlloc)
		if perID := float64(grown-rank) / n; perID > 32 {
			t.Errorf("%s: %.1f bytes per id beyond the rank side (heap grew %d, rank side holds %d)", name, perID, grown, rank)
		}
		if r, ok := tr.Rank(ps[n-1].ID); !ok || r < 1 || tr.Len() != n {
			t.Fatalf("%s: Rank = %d, %v; Len = %d", name, r, ok, tr.Len())
		}
	}
}

// Ids added in descending order just past a full id block — a range
// scanned backwards over ids the table has not seen — must fill blocks,
// not start one per id: each block costs maxBlock slots.
func TestIDTableDescendingAddsPack(t *testing.T) {
	tr, o := New(), oracle{}
	add := func(id uint64) {
		tr.Add(id, 1, true)
		o[id]++
	}
	for id := uint64(0); id < maxBlock; id++ {
		add(id)
	}
	add(1 << 20)
	for id := uint64(1<<20 - 1); id >= 1<<20-1000; id-- {
		add(id)
	}
	if n := len(tr.ids.blocks); n > tr.Len()/minBlock {
		t.Fatalf("%d id blocks for %d ids", n, tr.Len())
	}
	checkAgainst(t, tr, o, 0)
}
