package detect

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/zipf"
)

// pairwiseRecluster is the clustering sweep with no state kept between
// sweeps: every sketch at or above the floor cloned, one
// Signature.Jaccard call per candidate pair. It is the reference the
// sweep is tested and benchmarked against.
func pairwiseRecluster(d *Detector) {
	d.clusterMu.Lock()
	defer d.clusterMu.Unlock()

	type oracleCandidate struct {
		name string
		cov  float64
		sig  *Signature
		hll  *HLL
	}
	var cands []oracleCandidate
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for name, st := range s.entries {
			if st.ownCov >= d.floor {
				cands = append(cands, oracleCandidate{
					name: name,
					cov:  st.ownCov,
					sig:  st.sig.Clone(),
					hll:  st.hll.Clone(),
				})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cov != cands[j].cov {
			return cands[i].cov > cands[j].cov
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}

	attr := make(map[string]attribution, len(cands))
	assigned := make([]bool, len(cands))
	var ncoal int64
	for i := range cands {
		if assigned[i] {
			continue
		}
		members := []int{i}
		for j := i + 1; j < len(cands); j++ {
			if assigned[j] {
				continue
			}
			if cands[i].sig.Jaccard(cands[j].sig) >= d.cfg.JaccardThreshold {
				members = append(members, j)
			}
		}
		if len(members) < 2 {
			attr[cands[i].name] = attribution{}
			continue
		}
		ncoal++
		union := cands[members[0]].hll.Clone()
		for _, m := range members[1:] {
			union.Merge(cands[m].hll)
		}
		cov := clamp01(union.Estimate() / float64(d.cfg.CatalogSize))
		a := attribution{coalition: cands[i].name, n: len(members), cov: cov}
		for _, m := range members {
			assigned[m] = true
			attr[cands[m].name] = a
		}
	}
	d.coalitions.Store(ncoal)

	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for name, st := range s.entries {
			a, isCand := attr[name]
			if isCand {
				st.coalition = a.coalition
				st.coalitionN = a.n
				st.coalitionCov = a.cov
			} else {
				st.coalition = ""
				st.coalitionN = 0
				st.coalitionCov = 0
			}
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
}

// A population feeds one detector; the differential test builds it
// twice. A nonzero floor replaces the detector's candidate floor before
// the feed.
type population struct {
	name  string
	cfg   Config
	floor float64
	feed  func(d *Detector, rng *rand.Rand)
}

func sweepConfig(catalog int) Config {
	return Config{
		CatalogSize: catalog,
		Policy:      EscalationPolicy{Grace: 0.08, Cap: 64},
	}
}

// scanner draws the key ranges of the ledger's scan_mixed workload as
// the detector sees them: ranges of 10, 100 or 1000 ids (weights
// 0.6/0.3/0.1) that start at a Zipf-ranked key, popularity rank
// scattered over the key space by a fixed permutation. Popular starts
// are shared, so the signatures of its readers agree in a fraction of
// their slots without any coalition existing.
type scanner struct {
	rng   *rand.Rand
	ranks *zipf.Sampler
	perm  []int
	ids   []uint64
}

func newScanner(rows int, rng *rand.Rand) *scanner {
	dist, err := zipf.New(rows, 1)
	if err != nil {
		panic(err)
	}
	return &scanner{
		rng:   rng,
		ranks: zipf.NewSampler(dist, rng.Int63()),
		perm:  rand.New(rand.NewSource(0x5eed)).Perm(rows),
		ids:   make([]uint64, 0, 1000),
	}
}

// next returns the ids of one range scan, valid until the next call.
func (sc *scanner) next() []uint64 {
	span := 10
	if u := sc.rng.Float64(); u >= 0.9 {
		span = 1000
	} else if u >= 0.6 {
		span = 100
	}
	start := sc.perm[sc.ranks.Next()-1]
	if rows := len(sc.perm); start > rows-span {
		start = rows - span
	}
	sc.ids = sc.ids[:0]
	for k := 0; k < span; k++ {
		sc.ids = append(sc.ids, uint64(start+k))
	}
	return sc.ids
}

// feedScans has every principal read scanner ranges until it has issued
// its share of scans.
func feedScans(principals, scansEach int) func(*Detector, *rand.Rand) {
	return func(d *Detector, rng *rand.Rand) {
		sc := newScanner(d.cfg.CatalogSize, rng)
		for q := 0; q < principals*scansEach; q++ {
			ids := sc.next()
			d.ObserveBatch(fmt.Sprintf("user-%d", rng.Intn(principals)), ids)
		}
	}
}

// feedSybil splits a scan of the catalog's first 60% over k identities
// that also share a verification sample, next to bystanders.
func feedSybil(k int) func(*Detector, *rand.Rand) {
	return func(d *Detector, rng *rand.Rand) {
		rows := d.cfg.CatalogSize
		share := rows * 6 / 10 / k
		for s := 0; s < k; s++ {
			name := fmt.Sprintf("sybil-%02d", s)
			observeRange(d, name, s*share, (s+1)*share)
			observeRange(d, name, rows*7/10, rows*8/10)
		}
		for b := 0; b < 8; b++ {
			lo := rng.Intn(rows * 9 / 10)
			observeRange(d, fmt.Sprintf("bystander-%d", b), lo, lo+rows/20)
		}
	}
}

var populations = []population{
	{
		name: "disjoint",
		cfg:  sweepConfig(100_000),
		feed: func(d *Detector, _ *rand.Rand) {
			for p := 0; p < 64; p++ {
				observeRange(d, fmt.Sprintf("p%02d", p), p*1000, (p+1)*1000)
			}
		},
	},
	{name: "scans", cfg: sweepConfig(20_000), feed: feedScans(48, 40)},
	{name: "sybil", cfg: sweepConfig(10_000), feed: feedSybil(6)},
	{
		// Fewer ids than slots: slots stay empty on one side of a pair
		// and on both, and some principals share all they have.
		name:  "sparse",
		cfg:   sweepConfig(2_000),
		floor: 1e-9,
		feed: func(d *Detector, rng *rand.Rand) {
			for p := 0; p < 40; p++ {
				n := 1 + rng.Intn(120)
				ids := make([]uint64, n)
				for i := range ids {
					ids[i] = uint64(rng.Intn(300))
				}
				d.ObserveBatch(fmt.Sprintf("small-%02d", p), ids)
				if p%5 == 0 {
					d.ObserveBatch(fmt.Sprintf("twin-%02d", p), ids)
				}
			}
		},
	},
	{
		// More principals over the floor than a sweep keeps: the cut
		// at maxCandidates falls among principals of scan traffic.
		name:  "truncated",
		cfg:   sweepConfig(20_000),
		floor: 0.01,
		feed:  feedScans(300, 12),
	},
}

func build(t testing.TB, p population, seed int64) *Detector {
	t.Helper()
	d, err := NewDetector(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.floor != 0 {
		d.floor = p.floor
	}
	p.feed(d, rand.New(rand.NewSource(seed)))
	return d
}

// evict drops a principal from the table, as evictColdest does.
func evict(d *Detector, name string) {
	s := d.shard(name)
	s.mu.Lock()
	delete(s.entries, name)
	s.mu.Unlock()
}

// churn is what arrives between sweeps k and k+1, the same on every
// detector it is applied to; ws is the oracle's ranking after sweep k.
// After the first and the fourth sweep it changes the principals that
// hold columns: ws[0] reads a little more; ws[1] absorbs the sketch of
// ws[len/2] from a peer; ws[2] is evicted and seen again under its name
// with fewer ids than it had, so only some of its slots are lowered
// into an empty signature; and the four lowest ranked read a twentieth
// of the catalog, which carries them over the floor or into the
// maxCandidates cut and pushes as many others out. After the second
// sweep the floor is raised, breaking coalitions apart; after the third
// it is lowered back, so the candidates return to columns nobody holds.
func churn(d *Detector, ws []Suspect, seed int64, sweep int, floor float64) {
	rows := d.cfg.CatalogSize
	rng := rand.New(rand.NewSource(seed*100 + int64(sweep)))
	observeRange(d, ws[0].Principal, 0, 1+rng.Intn(50))
	switch {
	case sweep == 1:
		d.floor = 0.5
		return
	case sweep == 2:
		d.floor = floor
		return
	case sweep > 3 || len(ws) < 6:
		return
	}
	snaps, _ := d.ExportSince(0, 0)
	for _, sn := range snaps {
		if sn.Principal == ws[len(ws)/2].Principal {
			sn.Principal = ws[1].Principal
			d.Absorb([]SketchSnapshot{sn})
		}
	}
	evict(d, ws[2].Principal)
	ids := make([]uint64, 1+rng.Intn(signatureSlots/2))
	for i := range ids {
		ids[i] = uint64(rng.Intn(rows))
	}
	d.ObserveBatch(ws[2].Principal, ids)
	for _, s := range ws[len(ws)-4:] {
		lo := rng.Intn(rows - rows/20)
		observeRange(d, s.Principal, lo, lo+rows/20)
	}
}

// checkColumns: after a sweep, every candidate's column holds its
// principal's signature, and every pair of columns gives the
// Signature.Jaccard of the two signatures.
func checkColumns(t *testing.T, d *Detector) {
	t.Helper()
	w := &d.sweep
	sigs := make([]*Signature, len(w.cands))
	for i, cand := range w.cands {
		st, ok := d.shard(cand.name).entries[cand.name]
		if !ok {
			t.Fatalf("candidate %s is not tracked", cand.name)
		}
		sigs[i] = st.sig
		for s, v := range st.sig.slots {
			if got := w.sigs[s*w.stride+int(w.col[i])]; got != v {
				t.Fatalf("%s: column slot %d holds %x, signature %x", cand.name, s, got, v)
			}
		}
	}
	for i := range sigs {
		for j := i + 1; j < len(sigs); j++ {
			if got, want := w.jaccard(int(w.col[i]), int(w.col[j])), sigs[i].Jaccard(sigs[j]); got != want {
				t.Fatalf("%s, %s: columns give %v, signatures %v", w.cands[i].name, w.cands[j].name, got, want)
			}
		}
	}
}

// TestReclusterMatchesPairwiseOracle: on every population the sweep
// leaves exactly what the pairwise reference leaves — suspects field for
// field (== on the floats), the coalition count, and every multiplier —
// over five consecutive sweeps, so the hysteresis release is compared
// too, with the churn above arriving between them.
func TestReclusterMatchesPairwiseOracle(t *testing.T) {
	for _, p := range populations {
		t.Run(p.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				got, want := build(t, p, seed), build(t, p, seed)
				floor := got.floor
				for sweep := 0; sweep < 5; sweep++ {
					got.Recluster()
					pairwiseRecluster(want)
					checkColumns(t, got)
					gs, ws := got.Suspects(0), want.Suspects(0)
					if len(gs) != len(ws) {
						t.Fatalf("seed %d sweep %d: %d suspects, oracle %d", seed, sweep, len(gs), len(ws))
					}
					for i := range ws {
						if gs[i] != ws[i] {
							t.Fatalf("seed %d sweep %d: suspect %d = %+v, oracle %+v", seed, sweep, i, gs[i], ws[i])
						}
						if g, w := got.Multiplier(ws[i].Principal), want.Multiplier(ws[i].Principal); g != w {
							t.Fatalf("seed %d sweep %d: %s multiplier %v, oracle %v", seed, sweep, ws[i].Principal, g, w)
						}
					}
					if got.Coalitions() != want.Coalitions() {
						t.Fatalf("seed %d sweep %d: %d coalitions, oracle %d", seed, sweep, got.Coalitions(), want.Coalitions())
					}
					// The populations must exercise what they are there for.
					if p.name == "sybil" && sweep == 0 && got.Coalitions() == 0 {
						t.Error("sybil population: the sweep found no coalition")
					}
					if n := len(got.sweep.cands); p.name == "scans" && sweep == 0 && (n < 40 || slices.Max(got.sweep.match) == 0) {
						t.Errorf("scans population: %d candidates; want a full pass with signatures that agree somewhere", n)
					}
					if n := len(got.sweep.cands); p.name == "truncated" && sweep == 0 && n != maxCandidates {
						t.Errorf("truncated population: the sweep kept %d candidates, want the cut at %d", n, maxCandidates)
					}
					for _, d := range []*Detector{got, want} {
						churn(d, ws, seed, sweep, floor)
					}
				}
			}
		})
	}
}

// TestSweepClonesOnlyCandidates: with 1,000 principals above the floor a
// sweep copies the sketches of the maxCandidates it keeps, into buffers
// it already has — the thousand 3 KiB clones of the first phase are
// gone, and what a sweep allocates no longer grows with who is tracked.
func TestSweepClonesOnlyCandidates(t *testing.T) {
	build := func() *Detector {
		d, err := NewDetector(sweepConfig(1_000_000))
		if err != nil {
			t.Fatal(err)
		}
		d.floor = 1e-9
		for p := 0; p < 1000; p++ {
			observeRange(d, fmt.Sprintf("p%04d", p), p*100, p*100+50+p%50)
		}
		return d
	}
	got, want := build(), build()
	got.Recluster()
	pairwiseRecluster(want)
	if gs, ws := got.Suspects(0), want.Suspects(0); fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Fatal("attributions differ from the pairwise oracle")
	}
	if n := len(got.sweep.cands); n != maxCandidates {
		t.Fatalf("sweep kept %d candidates, want %d", n, maxCandidates)
	}
	// Steady state: the buffers exist, so a sweep allocates next to
	// nothing — far under one sketch per candidate, let alone per
	// tracked principal.
	if allocs := testing.AllocsPerRun(5, got.Recluster); allocs > 8 {
		t.Errorf("a sweep over 1,000 tracked principals makes %.0f allocations, want ≤ 8", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		got.Recluster()
	}
	runtime.ReadMemStats(&after)
	if bytes, clones := (after.TotalAlloc-before.TotalAlloc)/10, uint64(sketchBytes)*1000; bytes > clones/100 {
		t.Errorf("a sweep allocates %d bytes; cloning every tracked principal was %d", bytes, clones)
	}
}

// FuzzSweepColumns: over rounds of column assignment and arbitrary slot
// changes — signatures lowered, raised or emptied, principals replaced
// by an empty one, candidates coming and going — every pair of columns
// gives the match/used that Signature.Jaccard computes on the two
// signatures, the same float64, whether the round applied its changes
// one by one or recounted every pair; and similar agrees with comparing
// that estimate to a threshold.
func FuzzSweepColumns(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(5))
	f.Add([]byte{7, 7, 7, 1, 7, 7, 7, 1, 2, 2, 2, 2, 9, 9, 9, 9, 0xff, 3, 0xff, 3}, uint8(9))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the lazy dog"), uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, rounds uint8) {
		const width, principals = 16, 48
		pos := 0
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			pos++
			return int(data[(pos-1)%len(data)])
		}
		sigs := make([]*Signature, principals)
		dirty := make([][width]bool, principals)
		for p := range sigs {
			sigs[p] = NewSignature(width)
			for s := range dirty[p] {
				dirty[p][s] = true
			}
		}
		var w sweepScratch
		w.init(width)
		for round := 0; round < int(rounds)%8+1; round++ {
			// Slot changes, from a few distinct values per slot so that
			// agreements are common; value 0 of the alphabet empties the
			// slot. Now and then a principal starts over, empty.
			for p := range sigs {
				if next()%17 == 1 {
					sigs[p] = NewSignature(width)
					for s := range dirty[p] {
						dirty[p][s] = true
					}
				}
				for k := next() % 6; k > 0; k-- {
					s := next() % width
					v := uint64(emptySlot)
					if a := next() % 5; a != 0 {
						v = uint64(a)<<40 | uint64(s)
					}
					sigs[p].slots[s], dirty[p][s] = v, true
				}
			}
			// This round's candidates, in an arbitrary order.
			want := next() % 41
			start := next()
			var cands []int
			for k := 0; k < principals && len(cands) < want; k++ {
				if p := (start + k) % principals; next()%3 != 0 {
					cands = append(cands, p)
				}
			}
			w.cands = w.cands[:0]
			for _, p := range cands {
				w.cands = append(w.cands, candidate{name: fmt.Sprint("p", p)})
			}
			w.assign()
			for i, p := range cands {
				for s, v := range sigs[p].slots {
					if w.fresh[i] || dirty[p][s] {
						w.stage(int(w.col[i]), s, v)
					}
				}
				dirty[p] = [width]bool{}
			}
			w.commit()
			threshold := float64(1+next()%8) / 8
			for i, p := range cands {
				for j := i + 1; j < len(cands); j++ {
					q := cands[j]
					a, b := int(w.col[i]), int(w.col[j])
					want := sigs[p].Jaccard(sigs[q])
					if got := w.jaccard(a, b); got != want {
						t.Fatalf("round %d pair (p%d,p%d): columns %v, Jaccard %v", round, p, q, got, want)
					}
					if got := w.similar(a, b, threshold); got != (want >= threshold) {
						t.Fatalf("round %d pair (p%d,p%d): similar at %v = %v, Jaccard %v", round, p, q, threshold, got, want)
					}
				}
			}
		}
	})
}
