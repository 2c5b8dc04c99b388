package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

// goldenTables holds the FNV-64a of each Sybil experiment's printed
// table at Scale 20 / seed 2004, recorded when the tables moved onto the
// product fixture (fixture.go): every attack read a point SELECT through
// a shield, a shard's server or a router. A refactor of the fixture must
// reproduce every byte; a change that legitimately moves a number names
// its cause in CHANGES.md and records new values with
// GOLDEN_TABLES_PRINT=1.
var goldenTables = map[string]uint64{
	"sybil":       0xa44b3c4ccd4fb74d,
	"detect":      0x6ce7e3f04283121f,
	"sharded":     0x6cfc4800355914c8,
	"partitioned": 0x7ab99460cdb299d2,
	"shard-kill":  0x9820f02c060d4e70,
}

func TestGoldenSybilTables(t *testing.T) {
	const scale, seed = 20, 2004
	sp := DefaultSybilParams()
	sp.Scale, sp.Seed = scale, seed
	dp := DefaultSybilDetectionParams()
	dp.Scale, dp.Seed = scale, seed
	cp := DefaultShardedSybilParams()
	cp.Scale, cp.Seed = scale, seed
	pp := DefaultPartitionedSybilParams()
	pp.Scale, pp.Seed = scale, seed

	tables := map[string]func() (*Table, error){
		"sybil": func() (*Table, error) { return SybilAnalysis(sp) },
		"detect": func() (*Table, error) {
			res, err := SybilDetection(dp)
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		},
		"sharded":     shardedTable(func() (*ShardedSybilResult, error) { return ShardedSybilDetection(cp) }),
		"partitioned": shardedTable(func() (*ShardedSybilResult, error) { return PartitionedSybilDetection(pp) }),
		"shard-kill":  shardedTable(func() (*ShardedSybilResult, error) { return PartitionedShardKillSybil(pp) }),
	}
	for name, run := range tables {
		t.Run(name, func(t *testing.T) {
			tab, err := run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tab.Print(&buf)
			h := fnv.New64a()
			h.Write(buf.Bytes())
			got := h.Sum64()
			if os.Getenv("GOLDEN_TABLES_PRINT") != "" {
				fmt.Printf("\t%q: %#x,\n", name, got)
				return
			}
			if want := goldenTables[name]; got != want {
				t.Fatalf("table hash %#x, recorded %#x: the printed table changed:\n%s", got, want, buf.String())
			}
		})
	}
}

func shardedTable(run func() (*ShardedSybilResult, error)) func() (*Table, error) {
	return func() (*Table, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	}
}
