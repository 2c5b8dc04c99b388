package detect

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExportSinceConcurrentObserveNotMissed: the export watermark must
// not lose observations racing the scan. A batch that obtains its
// sequence just before an export captures the watermark, but stamps
// localSeen just after the scan passes its shard, would be filtered by
// every later export ("<= since") — a quiet-after-burst principal's
// final state permanently withheld from peers. ObserveBatch acquires
// the sequence inside the shard critical section precisely so that
// cannot happen; this hammers the seam under -race.
func TestExportSinceConcurrentObserveNotMissed(t *testing.T) {
	d, err := NewDetector(Config{CatalogSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 200

	var stop atomic.Bool
	exported := make(chan map[string]bool, 1)
	var mark uint64
	go func() {
		seen := make(map[string]bool)
		for !stop.Load() {
			snaps, next := d.ExportSince(mark, 0)
			for _, sn := range snaps {
				seen[sn.Principal] = true
			}
			mark = next
		}
		exported <- seen
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				// Each principal is observed exactly once: a missed
				// export is never repaired by a re-observation.
				d.ObserveBatch(fmt.Sprintf("p-%d-%d", w, k), []uint64{uint64(w*perWriter + k)})
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	seen := <-exported

	// Final drain from the last watermark: everything observed must
	// now have been exported exactly by watermark bookkeeping.
	snaps, _ := d.ExportSince(mark, 0)
	for _, sn := range snaps {
		seen[sn.Principal] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("exported %d of %d principals; concurrent observations slipped past the watermark", len(seen), writers*perWriter)
	}
}

func TestHLLMarshalRoundtrip(t *testing.T) {
	h := NewHLL(10)
	for i := uint64(0); i < 5000; i++ {
		h.Add(mix64(i))
	}
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalHLL(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.p != h.p {
		t.Fatalf("precision %d, want %d", got.p, h.p)
	}
	for i := range h.reg {
		if got.reg[i] != h.reg[i] {
			t.Fatalf("register %d: %d, want %d", i, got.reg[i], h.reg[i])
		}
	}
	if got.Estimate() != h.Estimate() {
		t.Fatalf("estimate %v, want %v (accumulators not rebuilt)", got.Estimate(), h.Estimate())
	}
	if got.sum != h.sum || got.zeros != h.zeros {
		t.Fatalf("accumulators sum=%v zeros=%d, want sum=%v zeros=%d", got.sum, got.zeros, h.sum, h.zeros)
	}
}

func TestSignatureMarshalRoundtrip(t *testing.T) {
	s := NewSignature(256)
	for i := uint64(0); i < 5000; i++ {
		s.Add(mix64(i))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalSignature(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(got.slots) != len(s.slots) || got.mask != s.mask {
		t.Fatalf("width %d mask %d, want %d %d", len(got.slots), got.mask, len(s.slots), s.mask)
	}
	if j := got.Jaccard(s); j != 1 {
		t.Fatalf("roundtripped Jaccard = %v, want 1", j)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	goodHLL, _ := NewHLL(10).MarshalBinary()
	goodSig, _ := NewSignature(256).MarshalBinary()

	hllCases := map[string][]byte{
		"empty":           nil,
		"short":           {hllWireVersion},
		"bad version":     append([]byte{99}, goodHLL[1:]...),
		"bad precision":   append([]byte{hllWireVersion, 3}, goodHLL[2:]...),
		"truncated":       goodHLL[:len(goodHLL)-1],
		"impossible rank": func() []byte { b := append([]byte(nil), goodHLL...); b[2] = 200; return b }(),
	}
	for name, data := range hllCases {
		if _, err := UnmarshalHLL(data); err == nil {
			t.Errorf("UnmarshalHLL accepted %s payload", name)
		}
	}

	sigCases := map[string][]byte{
		"empty":       nil,
		"short":       {sigWireVersion},
		"bad version": append([]byte{99}, goodSig[1:]...),
		"huge width":  {sigWireVersion, 40, 0, 0},
		"tiny width":  {sigWireVersion, 2, 0, 0},
		"truncated":   goodSig[:len(goodSig)-3],
	}
	for name, data := range sigCases {
		if _, err := UnmarshalSignature(data); err == nil {
			t.Errorf("UnmarshalSignature accepted %s payload", name)
		}
	}
}

func observe(t *testing.T, d *Detector, principal string, lo, hi uint64) {
	t.Helper()
	ids := make([]uint64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
	}
	d.ObserveBatch(principal, ids)
}

func TestExportSinceWatermarkAndFloor(t *testing.T) {
	d, err := NewDetector(Config{CatalogSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	observe(t, d, "heavy", 0, 600) // coverage ~0.6
	observe(t, d, "light", 0, 5)   // coverage ~0.005

	snaps, mark := d.ExportSince(0, 0.1)
	if len(snaps) != 1 || snaps[0].Principal != "heavy" {
		t.Fatalf("floor export = %v, want only heavy", snaps)
	}
	if snaps[0].WireBytes() == 0 {
		t.Fatal("snapshot reports zero wire bytes")
	}

	// Nothing observed since the watermark → nothing to export.
	if again, _ := d.ExportSince(mark, 0); len(again) != 0 {
		t.Fatalf("export past watermark returned %d snapshots", len(again))
	}

	// A fresh observation moves heavy past the watermark again.
	observe(t, d, "heavy", 600, 650)
	fresh, _ := d.ExportSince(mark, 0.1)
	if len(fresh) != 1 || fresh[0].Principal != "heavy" {
		t.Fatalf("post-observation export = %v, want heavy", fresh)
	}

	// No floor exports everyone.
	all, _ := d.ExportSince(0, 0)
	if len(all) != 2 {
		t.Fatalf("floorless export returned %d principals, want 2", len(all))
	}
}

func TestAbsorbUnionEqualsLocal(t *testing.T) {
	// Split one principal's stream across two detectors, exchange
	// snapshots, and check the absorbed union matches a single detector
	// that saw the whole stream.
	cfg := Config{CatalogSize: 1000}
	a, _ := NewDetector(cfg)
	b, _ := NewDetector(cfg)
	whole, _ := NewDetector(cfg)

	observe(t, a, "p", 0, 400)
	observe(t, b, "p", 300, 800)
	observe(t, whole, "p", 0, 400)
	observe(t, whole, "p", 300, 800)

	snaps, _ := b.ExportSince(0, 0)
	merged, rejected := a.Absorb(snaps)
	if merged != 1 || rejected != 0 {
		t.Fatalf("absorb = (%d merged, %d rejected), want (1, 0)", merged, rejected)
	}

	st := a.shard("p").entries["p"]
	want := whole.shard("p").entries["p"]
	if st.hll.Estimate() != want.hll.Estimate() {
		t.Fatalf("merged estimate %v, want %v", st.hll.Estimate(), want.hll.Estimate())
	}
	if j := st.sig.Jaccard(want.sig); j != 1 {
		t.Fatalf("merged signature Jaccard vs whole-stream = %v, want 1", j)
	}

	// Absorb is idempotent: re-absorbing the same snapshots changes nothing.
	before := st.hll.Estimate()
	if m, r := a.Absorb(snaps); m != 1 || r != 0 {
		t.Fatalf("re-absorb = (%d, %d), want (1, 0)", m, r)
	}
	if got := st.hll.Estimate(); got != before {
		t.Fatalf("re-absorb moved estimate %v → %v", before, got)
	}
}

func TestAbsorbEscalatesMultiplier(t *testing.T) {
	cfg := Config{CatalogSize: 1000}
	a, _ := NewDetector(cfg)
	b, _ := NewDetector(cfg)

	// Locally quiet on a, catalog-scale on b.
	observe(t, a, "p", 0, 10)
	observe(t, b, "p", 0, 900)

	if m := a.Multiplier("p"); m != 1 {
		t.Fatalf("pre-absorb multiplier %v, want 1", m)
	}
	snaps, _ := b.ExportSince(0, 0)
	a.Absorb(snaps)
	if m := a.Multiplier("p"); m <= 1 {
		t.Fatalf("post-absorb multiplier %v, want > 1", m)
	}
}

func TestAbsorbDoesNotMarkForExport(t *testing.T) {
	cfg := Config{CatalogSize: 1000}
	a, _ := NewDetector(cfg)
	b, _ := NewDetector(cfg)
	observe(t, b, "p", 0, 500)

	_, mark := a.ExportSince(0, 0)
	snaps, _ := b.ExportSince(0, 0)
	a.Absorb(snaps)
	if echo, _ := a.ExportSince(mark, 0); len(echo) != 0 {
		t.Fatalf("absorbed sketch re-exported: %v", echo)
	}
}

// sketchBytesOf marshals an HLL of precision p and a signature of width
// slots, both holding ids [0, n).
func sketchBytesOf(p uint8, slots, n int) (hll, sig []byte) {
	h, s := NewHLL(p), NewSignature(slots)
	for id := 0; id < n; id++ {
		x := mix64(uint64(id))
		h.Add(x)
		s.Add(x)
	}
	hll, _ = h.MarshalBinary()
	sig, _ = s.MarshalBinary()
	return hll, sig
}

// TestAbsorbRejectsMismatchedDimensions: a peer's sketch of another
// precision or width is rejected, one of the detector's own layout is
// merged.
func TestAbsorbRejectsMismatchedDimensions(t *testing.T) {
	a, _ := NewDetector(Config{CatalogSize: 1000})
	okHLL, okSig := sketchBytesOf(hllPrecision, signatureSlots, 100)
	wideHLL, _ := sketchBytesOf(12, signatureSlots, 100)
	_, narrowSig := sketchBytesOf(hllPrecision, 64, 100)

	bad := []SketchSnapshot{
		{Principal: "", HLL: nil, Sig: nil},
		{Principal: "p", HLL: wideHLL, Sig: okSig},
		{Principal: "q", HLL: okHLL, Sig: narrowSig},
	}
	merged, rejected := a.Absorb(bad)
	if merged != 0 || rejected != 3 {
		t.Fatalf("absorb = (%d merged, %d rejected), want (0, 3)", merged, rejected)
	}
	if n := a.TrackedPrincipals(); n != 0 {
		t.Fatalf("rejected snapshots created %d principals", n)
	}
	if merged, rejected := a.Absorb([]SketchSnapshot{{Principal: "r", HLL: okHLL, Sig: okSig}}); merged != 1 || rejected != 0 {
		t.Fatalf("absorb of the detector's own layout = (%d merged, %d rejected), want (1, 0)", merged, rejected)
	}
}

// FuzzSketchIO feeds the three functions that take sketch bytes from
// peers. None may panic; a sketch that decodes re-marshals to the bytes
// it came from; a snapshot Absorb rejects changes no detector state, and
// one it merges is merged for good (absorbing it again changes nothing).
func FuzzSketchIO(f *testing.F) {
	cfg := Config{CatalogSize: 64}
	peer, err := NewDetector(cfg)
	if err != nil {
		f.Fatal(err)
	}
	peer.ObserveBatch("p", []uint64{1, 2, 3, 40, 41})
	snaps, _ := peer.ExportSince(0, 0)
	good := snaps[0]
	f.Add("p", good.HLL, good.Sig)
	f.Add("new", good.HLL, good.Sig)
	f.Add("", good.HLL, good.Sig)
	f.Add("p", []byte{}, []byte{})
	f.Add("p", []byte{hllWireVersion, 3}, []byte{sigWireVersion, 30})
	f.Add("p", good.HLL[:len(good.HLL)-1], good.Sig)
	f.Add("p", good.HLL, append([]byte{sigWireVersion, 5}, good.Sig[2:]...))
	tiny, _ := sketchBytesOf(4, 16, 0)
	f.Add("p", append([]byte{hllWireVersion, 4, 62}, tiny[3:]...), good.Sig) // impossible rank
	empty, _ := NewHLL(10).MarshalBinary()
	f.Add("p", empty, good.Sig) // well-formed and empty
	wide, narrow := sketchBytesOf(12, 64, 5)
	f.Add("p", wide, good.Sig)   // well-formed, wrong precision for this detector
	f.Add("p", good.HLL, narrow) // well-formed, wrong width for this detector

	f.Fuzz(func(t *testing.T, principal string, hllBytes, sigBytes []byte) {
		if h, err := UnmarshalHLL(hllBytes); err == nil {
			if out, _ := h.MarshalBinary(); !bytes.Equal(out, hllBytes) {
				t.Fatalf("HLL % x re-marshals to % x", hllBytes, out)
			}
		}
		if s, err := UnmarshalSignature(sigBytes); err == nil {
			if out, _ := s.MarshalBinary(); !bytes.Equal(out, sigBytes) {
				t.Fatalf("signature % x re-marshals to % x", sigBytes, out)
			}
		}
		d, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.ObserveBatch("p", []uint64{7, 8, 9})
		d.ObserveBatch("q", []uint64{9, 10})
		state := func() string {
			snaps, _ := d.ExportSince(0, 0)
			return fmt.Sprintf("%d principals %x suspects %+v", d.TrackedPrincipals(), snaps, d.Suspects(8))
		}
		before := state()
		snap := []SketchSnapshot{{Principal: principal, HLL: hllBytes, Sig: sigBytes}}
		merged, rejected := d.Absorb(snap)
		if merged+rejected != 1 {
			t.Fatalf("Absorb of one snapshot: merged %d, rejected %d", merged, rejected)
		}
		after := state()
		if rejected == 1 && after != before {
			t.Fatalf("a rejected snapshot changed the detector:\n%s\n%s", before, after)
		}
		if again, _ := d.Absorb(snap); again != merged || state() != after {
			t.Fatalf("absorbing the same snapshot twice: merged %d then %d\n%s\n%s", merged, again, after, state())
		}
	})
}
