package index

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/storage"
)

func TestBTreeEmptyGet(t *testing.T) {
	tr := NewBTree[int64, string]()
	if _, ok := tr.Get(5); ok {
		t.Fatal("empty tree returned a value")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	tr.AscendRange(nil, nil, func(k int64, _ string) bool {
		t.Fatalf("empty tree scanned key %d", k)
		return false
	})
}

func TestBTreePutGet(t *testing.T) {
	tr := NewBTree[int64, string]()
	if _, existed := tr.Put(1, "one"); existed {
		t.Fatal("fresh key existed")
	}
	prev, existed := tr.Put(1, "uno")
	if !existed || prev != "one" {
		t.Fatalf("replace: %q, %v", prev, existed)
	}
	if v, ok := tr.Get(1); !ok || v != "uno" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestBTreeManyKeysAndSplits(t *testing.T) {
	tr := NewBTree[int64, int64]()
	const n = 100000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		tr.Put(int64(k), int64(k*2))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for k := int64(0); k < n; k += 997 {
		v, ok := tr.Get(k)
		if !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	if _, ok := tr.Get(n + 1); ok {
		t.Fatal("absent key found")
	}
	first, ok := int64(-1), false
	tr.AscendRange(nil, nil, func(k, _ int64) bool {
		first, ok = k, true
		return false
	})
	if !ok || first != 0 {
		t.Fatalf("first key = %d, %v", first, ok)
	}
}

func TestBTreeDelete(t *testing.T) {
	tr := NewBTree[int64, int]()
	for i := int64(0); i < 1000; i++ {
		tr.Put(i, int(i))
	}
	for i := int64(0); i < 1000; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		_, ok := tr.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
	if tr.Delete(0) {
		t.Fatal("double delete true")
	}
	if tr.Delete(5000) {
		t.Fatal("absent delete true")
	}
}

func TestBTreeAscendRangeBounded(t *testing.T) {
	tr := NewBTree[int64, int64]()
	for i := int64(0); i < 500; i++ {
		tr.Put(i, i)
	}
	lo, hi := int64(100), int64(199)
	var got []int64
	tr.AscendRange(&lo, &hi, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("range scan: len=%d first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatal("range scan not in key order")
		}
	}
}

func TestBTreeAscendRangeUnbounded(t *testing.T) {
	tr := NewBTree[string, int]()
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, w := range words {
		tr.Put(w, i)
	}
	var got []string
	tr.AscendRange(nil, nil, func(k string, v int) bool {
		got = append(got, k)
		return true
	})
	want := append([]string(nil), words...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: %v", got)
		}
	}
	// lo only.
	lo := "charlie"
	got = nil
	tr.AscendRange(&lo, nil, func(k string, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != "charlie" {
		t.Fatalf("lo-only: %v", got)
	}
	// hi only.
	hi := "bravo"
	got = nil
	tr.AscendRange(nil, &hi, func(k string, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[1] != "bravo" {
		t.Fatalf("hi-only: %v", got)
	}
}

func TestBTreeAscendRangeEarlyStop(t *testing.T) {
	tr := NewBTree[int64, int]()
	for i := int64(0); i < 1000; i++ {
		tr.Put(i, 0)
	}
	n := 0
	tr.AscendRange(nil, nil, func(int64, int) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestBTreeRangeAfterDeletions(t *testing.T) {
	tr := NewBTree[int64, int]()
	for i := int64(0); i < 300; i++ {
		tr.Put(i, 0)
	}
	for i := int64(0); i < 300; i += 3 {
		tr.Delete(i)
	}
	var got []int64
	tr.AscendRange(nil, nil, func(k int64, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 200 {
		t.Fatalf("len = %d", len(got))
	}
	for _, k := range got {
		if k%3 == 0 {
			t.Fatalf("deleted key %d in scan", k)
		}
	}
}

func TestBTreeAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewBTree[int64, int]()
		model := map[int64]int{}
		for op := 0; op < 2000; op++ {
			k := int64(rng.Intn(300))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int()
				_, existedTree := tr.Put(k, v)
				_, existedModel := model[k]
				if existedTree != existedModel {
					return false
				}
				model[k] = v
			case 2:
				delTree := tr.Delete(k)
				_, inModel := model[k]
				if delTree != inModel {
					return false
				}
				delete(model, k)
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		// Ordered scan matches sorted model keys.
		var keys []int64
		tr.AscendRange(nil, nil, func(k int64, v int) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != len(model) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeConcurrentReaders(t *testing.T) {
	tr := NewBTree[int64, int64]()
	for i := int64(0); i < 10000; i++ {
		tr.Put(i, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 2000; i++ {
				k := (i*7 + int64(w)) % 10000
				if v, ok := tr.Get(k); !ok || v != k {
					t.Errorf("Get(%d) = %d, %v", k, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkTree verifies the tree's shape: keys strictly ascending within a
// node and bounded by the separators above it, no node past maxKeys,
// every leaf at one depth, and the leaf chain visiting the leaves in key
// order. It returns the leaves in chain order.
func checkTree[K Ordered, V any](t *testing.T, tr *BTree[K, V]) []*bnode[K, V] {
	t.Helper()
	var leaves []*bnode[K, V]
	depth := -1
	var walk func(n *bnode[K, V], lo, hi *K, d int)
	walk = func(n *bnode[K, V], lo, hi *K, d int) {
		if len(n.keys) > maxKeys {
			t.Fatalf("node holds %d keys, max %d", len(n.keys), maxKeys)
		}
		for i, k := range n.keys {
			if i > 0 && !(n.keys[i-1] < k) {
				t.Fatalf("node keys out of order: %v then %v", n.keys[i-1], k)
			}
			if (lo != nil && k < *lo) || (hi != nil && !(k < *hi)) {
				t.Fatalf("key %v outside its separators", k)
			}
		}
		if n.leaf {
			if len(n.vals) != len(n.keys) {
				t.Fatalf("leaf has %d keys, %d values", len(n.keys), len(n.vals))
			}
			if depth >= 0 && d != depth {
				t.Fatalf("leaves at depths %d and %d", depth, d)
			}
			depth = d
			leaves = append(leaves, n)
			return
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("internal node has %d keys, %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			walk(c, clo, chi, d+1)
		}
	}
	walk(tr.root, nil, nil, 0)
	i := 0
	var prev *K
	for n := leaves[0]; n != nil; n = n.next {
		if i >= len(leaves) || n != leaves[i] {
			t.Fatalf("leaf chain diverges from the tree at leaf %d", i)
		}
		for j := range n.keys {
			if prev != nil && !(*prev < n.keys[j]) {
				t.Fatalf("leaf chain out of order: %v then %v", *prev, n.keys[j])
			}
			prev = &n.keys[j]
		}
		i++
	}
	if i != len(leaves) {
		t.Fatalf("leaf chain visits %d of %d leaves", i, len(leaves))
	}
	return leaves
}

// nodeBytes is the memory the tree's nodes hold: each node's struct plus
// the capacity of its slices.
func nodeBytes[K Ordered, V any](n *bnode[K, V]) uintptr {
	var k K
	var v V
	b := unsafe.Sizeof(*n) + uintptr(cap(n.keys))*unsafe.Sizeof(k) +
		uintptr(cap(n.vals))*unsafe.Sizeof(v) + uintptr(cap(n.children))*unsafe.Sizeof(n)
	for _, c := range n.children {
		b += nodeBytes(c)
	}
	return b
}

// TestBTreeModelInsertOrders checks Get and AscendRange against a sorted
// oracle after loads in four orders, after deleting a third of the keys,
// and after loading them again.
func TestBTreeModelInsertOrders(t *testing.T) {
	const n = 20000
	orders := []struct {
		name string
		keys func(rng *rand.Rand) []int64
	}{
		{"ascending", func(*rand.Rand) []int64 {
			ks := make([]int64, n)
			for i := range ks {
				ks[i] = int64(i) * 3
			}
			return ks
		}},
		{"descending", func(*rand.Rand) []int64 {
			ks := make([]int64, n)
			for i := range ks {
				ks[i] = int64(n-i) * 3
			}
			return ks
		}},
		// Two ascending streams of fresh ids, interleaved at random.
		{"interleaved", func(rng *rand.Rand) []int64 {
			ks := make([]int64, 0, n)
			a, b := int64(0), int64(1_000_000)
			for len(ks) < n {
				if rng.Intn(2) == 0 {
					ks = append(ks, a)
					a += 3
				} else {
					ks = append(ks, b)
					b += 3
				}
			}
			return ks
		}},
		{"random", func(rng *rand.Rand) []int64 {
			ks := make([]int64, n)
			for i, p := range rng.Perm(n) {
				ks[i] = int64(p) * 3
			}
			return ks
		}},
	}
	for _, order := range orders {
		t.Run(order.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2004))
			tr := NewBTree[int64, int64]()
			model := map[int64]int64{}
			check := func(phase string) {
				t.Helper()
				checkTree(t, tr)
				keys := make([]int64, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				if tr.Len() != len(keys) {
					t.Fatalf("%s: Len = %d, want %d", phase, tr.Len(), len(keys))
				}
				for i := 0; i < 2000; i++ {
					k := int64(rng.Intn(3*n + 3_000_000))
					v, ok := tr.Get(k)
					if want, in := model[k]; ok != in || v != want {
						t.Fatalf("%s: Get(%d) = %d, %v; want %d, %v", phase, k, v, ok, want, in)
					}
				}
				for _, k := range keys[:min(len(keys), 500)] {
					if v, ok := tr.Get(k); !ok || v != model[k] {
						t.Fatalf("%s: Get(%d) = %d, %v", phase, k, v, ok)
					}
				}
				for i := 0; i < 200; i++ {
					var lo, hi *int64
					if i%4 != 0 {
						l := int64(rng.Intn(3*n+3_000_000)) - 10
						lo = &l
					}
					if i%5 != 0 {
						h := int64(rng.Intn(3*n + 3_000_000))
						hi = &h
					}
					from := 0
					if lo != nil {
						from = sort.Search(len(keys), func(j int) bool { return keys[j] >= *lo })
					}
					to := len(keys)
					if hi != nil {
						to = sort.Search(len(keys), func(j int) bool { return keys[j] > *hi })
					}
					want := []int64{}
					if from < to {
						want = keys[from:to]
					}
					got := []int64{}
					tr.AscendRange(lo, hi, func(k, v int64) bool {
						if v != model[k] {
							t.Fatalf("%s: range value for %d = %d, want %d", phase, k, v, model[k])
						}
						got = append(got, k)
						return true
					})
					if len(got) != len(want) {
						t.Fatalf("%s: range %v..%v returned %d keys, want %d", phase, lo, hi, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s: range key %d = %d, want %d", phase, j, got[j], want[j])
						}
					}
					// The same range descending, stopped after stop keys.
					stop := len(want)
					if i%3 == 0 {
						stop = rng.Intn(len(want) + 1)
					}
					down := []int64{}
					tr.DescendRange(lo, hi, func(k, v int64) bool {
						if v != model[k] {
							t.Fatalf("%s: descending value for %d = %d, want %d", phase, k, v, model[k])
						}
						down = append(down, k)
						return len(down) < stop
					})
					if stop == 0 {
						stop = min(1, len(want)) // fn sees one key before it can stop
					}
					if len(down) != stop {
						t.Fatalf("%s: descending %v..%v returned %d keys, want %d", phase, lo, hi, len(down), stop)
					}
					for j, k := range down {
						if w := want[len(want)-1-j]; k != w {
							t.Fatalf("%s: descending key %d = %d, want %d", phase, j, k, w)
						}
					}
				}
			}
			ks := order.keys(rng)
			for _, k := range ks {
				v := rng.Int63()
				tr.Put(k, v)
				model[k] = v
			}
			check("load")
			for _, k := range ks {
				if rng.Intn(3) == 0 {
					if !tr.Delete(k) {
						t.Fatalf("Delete(%d) = false", k)
					}
					delete(model, k)
				}
			}
			check("delete")
			for _, k := range ks {
				v := rng.Int63()
				tr.Put(k, v)
				model[k] = v
			}
			check("reload")
		})
	}
}

// TestBTreeAscendingLoadFillsLeaves: keys arriving in ascending order,
// as a bulk load or fresh ids do, leave every leaf but the last full, so
// a (key, RID) entry costs little more than its 16 bytes.
func TestBTreeAscendingLoadFillsLeaves(t *testing.T) {
	const n = 200000
	tr := NewBTree[int64, storage.RID]()
	for i := 0; i < n; i++ {
		tr.Put(int64(i), storage.RID{Page: storage.PageID(i / 40), Slot: uint16(i % 40)})
	}
	leaves := checkTree(t, tr)
	for i, l := range leaves[:len(leaves)-1] {
		if len(l.keys) != maxKeys {
			t.Fatalf("leaf %d of %d holds %d keys, want %d", i, len(leaves), len(l.keys), maxKeys)
		}
	}
	perRow := float64(nodeBytes(tr.root)) / n
	t.Logf("ascending: %d leaves, %.1f B/row of node memory", len(leaves), perRow)
	if perRow > 20 {
		t.Fatalf("%.1f B/row of node memory, want ≤ 20", perRow)
	}

	rnd := NewBTree[int64, storage.RID]()
	for _, k := range rand.New(rand.NewSource(1)).Perm(n) {
		rnd.Put(int64(k), storage.RID{})
	}
	leaves = checkTree(t, rnd)
	t.Logf("random: leaves %.0f%% full, %.1f B/row of node memory",
		100*float64(n)/float64(len(leaves)*maxKeys), float64(nodeBytes(rnd.root))/n)
}

// TestBTreeConcurrentWriterAndScanners runs a writer beside readers and
// range scans, for the race detector.
func TestBTreeConcurrentWriterAndScanners(t *testing.T) {
	tr := NewBTree[int64, int64]()
	for i := int64(0); i < 5000; i++ {
		tr.Put(i, i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(5000); i < 10000; i++ {
			tr.Put(i, i)
			if i%2 == 0 {
				tr.Delete(i)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				lo := (i*37 + int64(w)) % 4900
				hi := lo + 50
				n := 0
				tr.AscendRange(&lo, &hi, func(k, v int64) bool {
					n++
					return k == v
				})
				if n != 51 {
					t.Errorf("range %d..%d visited %d keys, want 51", lo, hi, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 7500 {
		t.Fatalf("Len = %d, want 7500", tr.Len())
	}
}
