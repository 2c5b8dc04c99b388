package detect

import "testing"

// TestPartitionSliceMergeUnionCoverage models the partitioned cluster:
// each shard's detector observes only the tuple IDs its partition slice
// serves, so a scanner extracting through point queries looks like a
// small-coverage principal to every individual shard. The anti-entropy
// exchange must reassemble the union — after a full mesh of
// export/absorb, every shard prices the principal by its global
// coverage, exactly as if one node had seen the whole stream.
func TestPartitionSliceMergeUnionCoverage(t *testing.T) {
	const shards = 4
	const catalog = 1000
	cfg := Config{
		CatalogSize: catalog,
		Policy:      EscalationPolicy{Grace: 0.60, Cap: 8},
	}
	dets := make([]*Detector, shards)
	for i := range dets {
		d, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dets[i] = d
	}

	// "splitter" scans the full catalog, but each shard sees only a
	// disjoint quarter — 25% local coverage, under the 60% grace.
	slice := catalog / shards
	for i, d := range dets {
		observe(t, d, "splitter", uint64(i*slice), uint64((i+1)*slice))
		if m := d.Multiplier("splitter"); m != 1 {
			t.Fatalf("shard %d multiplier %v before exchange, want 1 (25%% local coverage is under grace)", i, m)
		}
	}

	// Full-mesh exchange: every shard absorbs every peer's snapshots.
	for i, from := range dets {
		snaps, _ := from.ExportSince(0, 0)
		if len(snaps) == 0 {
			t.Fatalf("shard %d exported nothing", i)
		}
		for j, to := range dets {
			if i == j {
				continue
			}
			if _, rejected := to.Absorb(snaps); rejected != 0 {
				t.Fatalf("shard %d rejected %d snapshots from shard %d", j, rejected, i)
			}
		}
	}

	// Every shard now holds the union view and escalates.
	for i, d := range dets {
		if m := d.Multiplier("splitter"); m <= 1 {
			t.Fatalf("shard %d multiplier %v after exchange, want > 1 (union coverage ~100%%)", i, m)
		}
	}

	// A principal genuinely touching only one slice stays cheap
	// everywhere: the union of one slice is still one slice.
	for i, d := range dets {
		observe(t, d, "local-reader", 0, 40) // 4% of the catalog, same IDs on every shard
		_ = i
	}
	for i, from := range dets {
		snaps, _ := from.ExportSince(0, 0)
		for j, to := range dets {
			if i != j {
				to.Absorb(snaps)
			}
		}
	}
	for i, d := range dets {
		if m := d.Multiplier("local-reader"); m != 1 {
			t.Fatalf("shard %d multiplier %v for small reader after exchange, want 1", i, m)
		}
	}
}
