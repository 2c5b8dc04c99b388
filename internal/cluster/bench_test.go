package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/vclock"
)

// benchConfig opens admission wide: the benches measure routing
// overhead, not the edge limiter's (correct) rejection of 100k qps
// clients.
func benchConfig(partitions, replication int) Config {
	return Config{
		Partitions: partitions, Replication: replication,
		AdmitRate: 1e9, AdmitBurst: 1e9, MaxInFlight: 1 << 30,
	}
}

// handlerTransport is the benchmarks' in-process adapter: it hands a
// call to the shard's handler on the calling goroutine, so a benchmark
// through it times the router's own work without the kernel's round
// trip (via=remote times that). No product path uses it; the shard
// transport is the only one.
type handlerTransport struct {
	h    http.Handler
	host string
}

func (t handlerTransport) roundTrip(ctx context.Context, c *call) (reply, error) {
	path, query, _ := strings.Cut(c.path, "?")
	req := (&http.Request{
		Method:     c.method,
		URL:        &url.URL{Scheme: "http", Host: t.host, Path: path, RawQuery: query},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 3),
		Body:       http.NoBody,
		Host:       t.host,
	}).WithContext(ctx)
	if c.body != nil {
		req.Body = io.NopCloser(bytes.NewReader(c.body))
		req.ContentLength = int64(len(c.body))
		req.Header["Content-Type"] = []string{"application/json"}
	}
	if c.identity != "" {
		req.Header["X-Identity"] = []string{c.identity}
	}
	rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return reply{status: rec.code, contentType: rec.header.Get("Content-Type"), retryAfter: rec.header.Get("Retry-After"), body: rec.body.Bytes()}, ctx.Err()
}

// adapterNode is a shard reached through handlerTransport. Its shard
// transport dials nothing, so the transport gauges read zero.
func adapterNode(name string, h http.Handler) *Node {
	return &Node{name: name, rt: handlerTransport{h: h, host: name}, pt: &peerTransport{}}
}

// adapterCluster returns the front door of a router over n newShard
// shards reached through handlerTransport, holding rows (i, 'v<i>') for
// i in 1..tuples, and the shards' own handlers.
func adapterCluster(b *testing.B, n, tuples int, cfg Config) (http.Handler, []http.Handler) {
	b.Helper()
	nodes := make([]*Node, n)
	handlers := make([]http.Handler, n)
	for i := range nodes {
		handlers[i], _ = newShard(b, tuples, nil)
		nodes[i] = adapterNode(fmt.Sprintf("shard-%d", i), handlers[i])
	}
	r, err := NewRouter(nodes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.ExecScript(insertItems(1, tuples)); err != nil {
		b.Fatal(err)
	}
	return r.Handler(), handlers
}

// BenchmarkClusterPointQuery measures the router's tax on the hot
// path: the same point query against a shard directly vs through the
// front door (body read, JSON decode, admission, statement plan,
// replica-group walk, second transport hop, relay). bench.sh bounds
// via=router against via=direct.
func BenchmarkClusterPointQuery(b *testing.B) {
	router, shards := adapterCluster(b, 1, 100, benchConfig(0, 0))
	shard := shards[0]
	body, _ := json.Marshal(server.QueryRequest{SQL: `SELECT * FROM items WHERE id = 42`})

	run := func(b *testing.B, h http.Handler) {
		client := &http.Client{Transport: handlerClient{h: h}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequest(http.MethodPost, "http://bench/query", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Identity", "bench")
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("HTTP %d", resp.StatusCode)
			}
		}
	}

	b.Run("via=direct", func(b *testing.B) { run(b, shard) })
	b.Run("via=router", func(b *testing.B) { run(b, router) })

	// via=remote is the real hop: the shard behind delaydb's http.Server
	// on a loopback listener, reached through NewHTTPNode's shard
	// transport, so the recorded cost includes the kernel.
	// bench.sh bounds it against via=direct.
	rr, err := NewRouter([]*Node{NewHTTPNode("shard-r", serveLoopback(b, shard))}, benchConfig(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("via=remote", func(b *testing.B) { run(b, rr.Handler()) })
}

// newIOShard builds a shard for I/O-bound scans: an 8-page pool and one
// scan worker, whose page I/O modelIO makes cost what a 2004-era disk's
// did. The engine takes its scan workers from GOMAXPROCS at Open, so
// Open runs under GOMAXPROCS(1).
func newIOShard(b *testing.B, catalogN int) http.Handler {
	b.Helper()
	prev := runtime.GOMAXPROCS(1)
	db, err := engine.Open(b.TempDir(), engine.WithPoolPages(8))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	shield, err := core.New(db, core.Config{
		N: catalogN, Alpha: 1, Beta: 1, Cap: time.Millisecond,
		Clock:                vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
		RegistrationInterval: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(shield)
	if err != nil {
		b.Fatal(err)
	}
	return srv.Handler()
}

// modelIO makes every physical page read and write sleep 250µs until the
// benchmark ends, so scans are I/O-bound the way the paper's delay
// accounting assumes — and so scatter-gather's concurrency shows up even
// on a single-core bench host: shards sleeping in their page reads
// overlap.
func modelIO(b *testing.B) {
	const latency = 250 * time.Microsecond
	fault.Enable(fault.NewRegistry(1).
		Add(fault.Rule{Site: fault.PagerRead, Kind: fault.Latency, Latency: latency}).
		Add(fault.Rule{Site: fault.PagerWrite, Kind: fault.Latency, Latency: latency}))
	b.Cleanup(fault.Disable)
}

func benchLoadItems(b testing.TB, r *Router, tuples int) {
	b.Helper()
	pad := strings.Repeat("x", 180)
	// Chunked loads keep each statement's pinned-page working set
	// inside the deliberately small pool; placement still goes through
	// the router's split-insert path.
	const chunk = 100
	for lo := 1; lo <= tuples; lo += chunk {
		var sb strings.Builder
		sb.WriteString("INSERT INTO items VALUES ")
		for i := lo; i < lo+chunk && i <= tuples; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s%d')", i, pad, i)
		}
		if err := r.ExecScript(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQuery(b *testing.B, h http.Handler, body []byte) {
	b.Helper()
	client := &http.Client{Transport: handlerClient{h: h}}
	req, err := http.NewRequest(http.MethodPost, "http://bench/query", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Identity", "bench")
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
}

// BenchmarkClusterScan is the capacity claim under measurement: the
// same I/O-bound full-table aggregate over the same 2000 tuples, held
// by one shard (partitions=1) vs spread over four (partitions=4). With
// real horizontal scale the four shards each scan ~1/4 of the pages
// concurrently; bench.sh enforces partitions=4 ≤ 0.5 × partitions=1.
func BenchmarkClusterScan(b *testing.B) {
	const tuples = 2000
	scan := func(b *testing.B, shards int) {
		nodes := make([]*Node, shards)
		for i := range nodes {
			nodes[i] = adapterNode(fmt.Sprintf("shard-%d", i), newIOShard(b, tuples))
		}
		r, err := NewRouter(nodes, benchConfig(64, 1))
		if err != nil {
			b.Fatal(err)
		}
		benchLoadItems(b, r, tuples)
		modelIO(b)
		body, _ := json.Marshal(server.QueryRequest{SQL: `SELECT COUNT(*) FROM items`})
		h := r.Handler()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchQuery(b, h, body)
		}
	}
	b.Run("partitions=1", func(b *testing.B) { scan(b, 1) })
	b.Run("partitions=4", func(b *testing.B) { scan(b, 4) })
}

// BenchmarkClusterTopN is the scatter statement the latency ledger's
// cluster_mix sends: SELECT * over a 100-key range ORDER BY id LIMIT 20,
// over four shards reached through the in-process adapter, holding rows
// of ~200 bytes. The router asks only for the window of the 20 keys from
// the range's start, from the primaries of the partitions they hash to,
// and relays the 20 rows its legs bring back; before the window, each
// leg brought back its 20 best and the router merged 80 into 20.
// partitions=4 is one replica per partition, r=2 two, as cluster_mix
// runs.
func BenchmarkClusterTopN(b *testing.B) {
	const tuples = 2000
	for _, c := range []struct {
		name        string
		replication int
	}{{"partitions=4", 1}, {"r=2", 2}} {
		nodes := make([]*Node, 4)
		for i := range nodes {
			h, _ := newShard(b, tuples, nil)
			nodes[i] = adapterNode(fmt.Sprintf("shard-%d", i), h)
		}
		r, err := NewRouter(nodes, benchConfig(64, c.replication))
		if err != nil {
			b.Fatal(err)
		}
		benchLoadItems(b, r, tuples)
		h := r.Handler()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := 1 + i*37%(tuples-100)
				body, _ := json.Marshal(server.QueryRequest{
					SQL: fmt.Sprintf(`SELECT * FROM items WHERE id BETWEEN %d AND %d ORDER BY id LIMIT 20`, lo, lo+99),
				})
				benchQuery(b, h, body)
			}
		})
	}
}

// benchLegs renders the legs of such a TopN: 4 shard replies of rows rows
// each, ids dealt round-robin, as a shard's encoder writes them.
func benchLegs(b testing.TB, rows int) [][]byte {
	b.Helper()
	legs := make([][]byte, 4)
	for j := range legs {
		resp := server.QueryResponse{Columns: []string{"id", "v"}, DelayMillis: 6.25 + float64(j)}
		for i := 0; i < rows; i++ {
			id := 1 + j + len(legs)*i
			resp.Rows = append(resp.Rows, []string{fmt.Sprint(id), strings.Repeat("x", 180) + fmt.Sprint(id)})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			b.Fatal(err)
		}
		legs[j] = buf.Bytes()
	}
	return legs
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) WriteHeader(int)             {}
func (d discard) Write(p []byte) (int, error) { return len(p), nil }

// spanMergeOnce is what scatterRead does with its legs once they are in:
// scan each, merge, write the reply.
func spanMergeOnce(b testing.TB, legs [][]byte, spec *mergeSpec, w http.ResponseWriter) {
	replies, ok := scanLegs(legs)
	if !ok {
		b.Fatal("a leg is not the reply frame")
	}
	columns, rows, delay, err := mergeReplies(replies, spec)
	if err != nil {
		b.Fatal(err)
	}
	server.WriteQueryResponse(w, columns, rows, 0, delay)
}

// BenchmarkMergeLegs times the router's share of that TopN with no
// socket and no shard in it — four 20-row legs in, the 20-row reply out —
// over spans, and the way it was done before, every cell through
// encoding/json into a string and back (the test oracle). bench.sh holds
// span to at most half of oracle in the same process; here, span's
// allocations must not grow with the rows a leg carries.
func BenchmarkMergeLegs(b *testing.B) {
	spec := specArgs{shape: 1, limit: 20, idx: -1}.spec()
	legs, w := benchLegs(b, 20), discard{h: make(http.Header)}
	allocs := func(legs [][]byte) float64 {
		return testing.AllocsPerRun(50, func() { spanMergeOnce(b, legs, spec, w) })
	}
	if short, long := allocs(legs), allocs(benchLegs(b, 200)); short != long {
		b.Fatalf("%v allocations to merge 20-row legs, %v for 200-row legs", short, long)
	}
	b.Run("span", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spanMergeOnce(b, legs, spec, w)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleReply(legs, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterWrite measures write amplification: a single-row
// INSERT against a 4-shard cluster whose replica groups are every shard
// (r=N: all four apply it) vs one shard (r=1: exactly the owner applies
// it). Both hold only their partition's lock. bench.sh enforces
// r=1 ≤ 1.0 × r=N.
func BenchmarkClusterWrite(b *testing.B) {
	write := func(b *testing.B, partitions int) {
		h, _ := adapterCluster(b, 4, 1, benchConfig(partitions, 1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, _ := json.Marshal(server.QueryRequest{
				SQL: fmt.Sprintf(`INSERT INTO items VALUES (%d, 'w')`, 1000+i),
			})
			benchQuery(b, h, body)
		}
	}
	b.Run("r=N", func(b *testing.B) { write(b, 0) })
	b.Run("r=1", func(b *testing.B) { write(b, 64) })
}

// BenchmarkClusterReplicatedPoint prices replica groups on the read
// hot path: the same point query through a 4-shard router with R=1 vs
// R=2. With every replica healthy the group walk stops at its first
// readable member, so R=2 should cost only the group lookup; bench.sh
// enforces r=2 ≤ 1.3 × r=1.
func BenchmarkClusterReplicatedPoint(b *testing.B) {
	point := func(b *testing.B, replication int) {
		h, _ := adapterCluster(b, 4, 100, benchConfig(64, replication))
		body, _ := json.Marshal(server.QueryRequest{SQL: `SELECT * FROM items WHERE id = 42`})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchQuery(b, h, body)
		}
	}
	b.Run("r=1", func(b *testing.B) { point(b, 1) })
	b.Run("r=2", func(b *testing.B) { point(b, 2) })
}
