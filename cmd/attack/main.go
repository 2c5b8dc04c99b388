// Command attack plays the adversary against a live delaydb server — the
// attacker's-eye view of the defense. It prices a full extraction via the
// admin quote endpoint, optionally runs a short live probe through the
// public front door, and reports what a parallel (Sybil) variant would
// cost under the §2.4 cost model.
//
// Usage:
//
//	attack -addr http://localhost:8080 -admin-addr http://localhost:8081
//	       -n 100000 [-probe 20] [-identity robot] [-reginterval 0] [-k 32]
//
// The quote comes from delaydb's admin listener (-admin-addr), which a
// real adversary cannot reach; the probe goes through the front door.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/ratelimit"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "target server's public listener")
		adminAddr   = flag.String("admin-addr", "http://localhost:8081", "target server's admin listener, for the quote")
		n           = flag.Int("n", 100_000, "tuple ids 0..n-1 to extract")
		table       = flag.String("table", "items", "table to probe")
		probe       = flag.Int("probe", 10, "live probe queries through the front door (0 = none)")
		identity    = flag.String("identity", "robot", "identity for the live probe")
		regInterval = flag.Duration("reginterval", 0, "assumed registration throttle for the parallel analysis")
		k           = flag.Int("k", 32, "identity count for the parallel analysis")
	)
	flag.Parse()

	// 1. Price the full extraction without tipping our hand (admin
	// endpoint; a real adversary would have to pay to discover this).
	ids := make([]uint64, *n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	quote, err := adminQuote(*adminAddr, ids)
	if err != nil {
		log.Fatalf("attack: quote: %v", err)
	}
	total := time.Duration(quote.DelayMillis * float64(time.Millisecond))
	fmt.Printf("full extraction of %d tuples is currently priced at %v (%.1f hours)\n",
		*n, total.Round(time.Second), total.Hours())

	// 2. Parallel attack analysis (§2.4).
	par := ratelimit.ParallelAttackTime(total, *regInterval, *k)
	kStar, best := ratelimit.OptimalParallelism(total, *regInterval)
	fmt.Printf("with %d identities and a %v registration throttle: %v wall time\n",
		*k, *regInterval, par.Round(time.Second))
	fmt.Printf("optimal parallelism k*=%d would take %v\n", kStar, best.Round(time.Second))
	if *regInterval > 0 && best >= total {
		fmt.Println("  → the throttle neutralizes parallelism entirely")
	}

	// 3. Live probe: feel the delays through the public door.
	if *probe > 0 {
		c := server.NewClient(*addr, *identity)
		fmt.Printf("\nlive probe as %q (%d sequential single-tuple queries):\n", *identity, *probe)
		var sum float64
		for i := 0; i < *probe; i++ {
			sql := fmt.Sprintf(`SELECT * FROM %s WHERE id = %d`, *table, i)
			start := time.Now()
			resp, err := c.Query(sql)
			if err != nil {
				fmt.Printf("  id %d: %v\n", i, err)
				continue
			}
			sum += resp.DelayMillis
			fmt.Printf("  id %4d: %d row(s), imposed delay %8.1f ms (wall %v)\n",
				i, len(resp.Rows), resp.DelayMillis, time.Since(start).Round(time.Millisecond))
		}
		fmt.Printf("probe total imposed delay: %.1f ms — extrapolated over %d tuples: %.1f hours\n",
			sum, *n, sum*float64(*n)/float64(*probe)/3.6e6)
	}
}

func adminQuote(addr string, ids []uint64) (*server.QuoteResponse, error) {
	body, err := json.Marshal(server.QuoteRequest{IDs: ids})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(addr+"/admin/quote", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var out server.QuoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
