package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/sqlmini"
)

// span is one timed call into a layer's public entry point. Spans of one
// replayed statement share Req; Parent is the ID of the span that caused
// it (0 for the root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to the module its self time is charged to.
var layerOf = map[string]string{
	"wire.roundtrip": "wire",
	"cluster.hop":    "cluster",
	"cluster.route":  "cluster",
	"server.handler": "server",
	"core.query":     "core",
	"engine.prepare": "engine",
	"engine.exec":    "engine",
	"sqlmini.parse":  "sqlmini",
	"detect.observe": "detect",
	"delay.quote":    "delay",
	"delay.observe":  "delay",
}

var layerOrder = []string{"wire", "cluster", "server", "core", "engine", "sqlmini", "detect", "delay"}

// memWriter is the in-memory http.ResponseWriter the handler passes
// write into.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.header }
func (m *memWriter) WriteHeader(code int)        { m.status = code }
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }

// handlerPass replays the statements into an http.Handler and returns the
// duration of every ServeHTTP call, the reply bytes and the heap
// allocations per statement. One goroutine, so the counts repeat exactly.
func handlerPass(h http.Handler, w *workload, seed int64, stmts []stmt) (ns []int64, respBytes, allocs float64, err error) {
	ns = make([]int64, len(stmts))
	var sql, body []byte
	mw := &memWriter{header: http.Header{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var total int64
	for i, st := range stmts {
		sql = w.appendSQL(sql[:0], seed, st)
		body = append(append(append(body[:0], `{"sql":"`...), sql...), `"}`...)
		req, rerr := http.NewRequest(http.MethodPost, "http://bench/query", bytes.NewReader(body))
		if rerr != nil {
			return nil, 0, 0, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Identity", identityName(st.ident))
		mw.status = http.StatusOK
		mw.body.Reset()
		t0 := time.Now()
		h.ServeHTTP(mw, req)
		ns[i] = int64(time.Since(t0))
		if mw.status != http.StatusOK {
			return nil, 0, 0, fmt.Errorf("replaying %q: HTTP %d: %s", sql, mw.status, bytes.TrimSpace(mw.body.Bytes()))
		}
		total += int64(mw.body.Len())
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(stmts))
	return ns, float64(total) / n, float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// innerTimes is what the shield-level and engine-level passes measured
// for one statement.
type innerTimes struct {
	core, parse, prepare, exec, detect, quote, observe int64
	tuples                                             int
}

// innerPasses replays the statements into Shield.QueryCtx on one fixture,
// and into the layers below it — engine, detector, gate, tracker — on
// another, calling each public function the shield itself calls, in the
// shield's order. The second fixture repeats the shield's bookkeeping for
// writes untimed, so both fixtures learn the same history.
func innerPasses(shieldFix, partsFix *topology, w *workload, seed int64, stmts []stmt) ([]innerTimes, error) {
	out := make([]innerTimes, len(stmts))
	ctx := context.Background()
	shield := shieldFix.dbs[0].Shield()
	parts := partsFix.dbs[0].Shield()
	eng, gate, det, tracker := parts.DB(), parts.Gate(), parts.Detector(), parts.Tracker()
	var sqlBuf []byte
	for i, st := range stmts {
		sqlBuf = w.appendSQL(sqlBuf[:0], seed, st)
		sql := string(sqlBuf)
		it := &out[i]

		t0 := time.Now()
		_, _, err := shield.QueryCtx(ctx, identityName(st.ident), sql)
		it.core = int64(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("replaying %q through the shield: %w", sql, err)
		}

		if st.kind.isWrite() {
			// Writes miss the plan cache and parse inside Prepare; time
			// the same parse alone to show its share.
			t0 = time.Now()
			_, err = sqlmini.Parse(sql)
			it.parse = int64(time.Since(t0))
			if err != nil {
				return nil, err
			}
		}
		t0 = time.Now()
		prep, err := eng.Prepare(sql)
		it.prepare = int64(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("preparing %q: %w", sql, err)
		}
		t0 = time.Now()
		res, err := prep.Exec()
		it.exec = int64(time.Since(t0))
		kind := prep.Kind()
		prep.Release()
		if err != nil {
			return nil, fmt.Errorf("executing %q: %w", sql, err)
		}
		if kind == engine.KindSelect {
			it.tuples = len(res.Keys)
			if det != nil {
				t0 = time.Now()
				det.ObserveBatch(identityName(st.ident), res.Keys)
				it.detect = int64(time.Since(t0))
			}
			t0 = time.Now()
			gate.Quote(res.Keys...)
			it.quote = int64(time.Since(t0))
			t0 = time.Now()
			tracker.ObserveBatch(res.Keys)
			it.observe = int64(time.Since(t0))
			continue
		}
		for _, key := range res.Keys {
			if kind == engine.KindDelete {
				tracker.Remove(key)
				if up := parts.UpdatePolicy(); up != nil {
					up.Tracker().Remove(key)
				}
			} else if up := parts.UpdatePolicy(); up != nil {
				up.RecordUpdate(key)
			}
		}
		if up := parts.UpdatePolicy(); up != nil {
			up.SetWindow(parts.Window())
		}
	}
	return out, nil
}

// wirePass replays the statements over one loopback connection against
// the server child and returns each round trip's duration. Every other
// statement is sent with span recording on, so the two halves give the
// tracing overhead on the same server state. model is what the earlier
// phases wrote, so point reads are still checked against it.
func wirePass(addr string, w *workload, seed int64, stmts []stmt, model map[int64]keyState) (traced, untraced []int64, err error) {
	wk := &worker{nconn: 1, w: w, seed: seed, model: model}
	if err := wk.redial(addr); err != nil {
		return nil, nil, err
	}
	defer wk.c.close()
	var recorded []span // what tracing costs the generator: one append per round trip
	res := runWorkers([]*worker{wk}, func(wk *worker, res *phaseResult) {
		for i, st := range stmts {
			t0 := time.Now()
			wk.exec(st, t0, -1, res)
			d := int64(time.Since(t0))
			if i%2 == 0 {
				recorded = append(recorded, span{Name: "wire.roundtrip", Req: i, ID: 1, Start: t0.UnixNano(), End: t0.UnixNano() + d})
				traced = append(traced, d)
			} else {
				untraced = append(untraced, d)
			}
		}
	})
	if res.failed > 0 {
		return nil, nil, fmt.Errorf("wire replay: %d of %d statements failed: %v", res.failed, res.attempted, res.errs)
	}
	return traced, untraced, nil
}

func medianNs(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// replayTimes holds, per replayed statement, the duration of the call
// into each layer's entry point.
type replayTimes struct {
	wire, hop, route, handler []int64 // hop and route are nil on one node
	inner                     []innerTimes
}

// tracedRun is the per-layer half of a run: it replays the workload's
// first s.replay statements into each layer's public entry point on
// in-process fixtures, and over one loopback connection against the
// child; composes one span tree per statement; and reports each layer's
// median time, its share of the replayed time, and the ledger's sanity
// ratios. Spans are recorded here, around the calls, not inside the
// program.
func (s runSpec) tracedRun(res *runResult, ch *child, w *workload, workers []*worker) error {
	gen := newStream(w, s.seed, phaseTrace, 0, 1, keyPermutation(w.rows))
	stmts := make([]stmt, s.replay)
	for i := range stmts {
		stmts[i] = gen.next()
	}
	model := map[int64]keyState{}
	for _, wk := range workers {
		for k, v := range wk.model {
			model[k] = v
		}
	}
	traced, untraced, err := wirePass(ch.ready.Addr, w, s.seed, stmts, model)
	if err != nil {
		return err
	}
	rt := replayTimes{wire: make([]int64, len(stmts))}
	for i := range stmts {
		if i%2 == 0 {
			rt.wire[i] = traced[i/2]
		} else {
			rt.wire[i] = untraced[i/2]
		}
	}

	root := filepath.Join(s.outDir, fmt.Sprintf("trace-data-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(root)
	var tops []*topology
	defer func() {
		for _, t := range tops {
			t.close() //nolint:errcheck // scratch fixtures, removed above
		}
	}()
	open := func(name string, fw *workload, link shardLink) (*topology, error) {
		t, err := openTopology(fw, filepath.Join(root, name), s.seed, link, true)
		if err == nil {
			tops = append(tops, t)
		}
		return t, err
	}
	single := *w
	single.shards, single.partitions, single.replication = 0, 0, 0
	handlerFix, err := open("handler", &single, linkLocal)
	if err != nil {
		return err
	}
	var respBytes, allocs float64
	if rt.handler, respBytes, allocs, err = handlerPass(handlerFix.handler, w, s.seed, stmts); err != nil {
		return err
	}
	shieldFix, err := open("shield", &single, linkLocal)
	if err != nil {
		return err
	}
	partsFix, err := open("parts", &single, linkLocal)
	if err != nil {
		return err
	}
	if rt.inner, err = innerPasses(shieldFix, partsFix, w, s.seed, stmts); err != nil {
		return err
	}
	if w.shards > 0 {
		localFix, err := open("router-local", w, linkLocal)
		if err != nil {
			return err
		}
		if rt.route, _, _, err = handlerPass(localFix.handler, w, s.seed, stmts); err != nil {
			return err
		}
		loopFix, err := open("router-loopback", w, linkLoopback)
		if err != nil {
			return err
		}
		if rt.hop, _, _, err = handlerPass(loopFix.handler, w, s.seed, stmts); err != nil {
			return err
		}
	}

	spans := composeSpans(rt)
	if err := writeSpans(filepath.Join(s.outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return err
	}
	ledger(res, w, stmts, spans)

	perTuple := func(pick func(innerTimes) int64) float64 {
		var ns, tuples float64
		for _, it := range rt.inner {
			ns += float64(pick(it))
			tuples += float64(it.tuples)
		}
		if tuples == 0 {
			return 0
		}
		return ns / tuples
	}
	medianOf := func(pick func(innerTimes) int64, nonZero bool) float64 {
		var v []float64
		for _, it := range rt.inner {
			if x := pick(it); x > 0 || !nonZero {
				v = append(v, float64(x))
			}
		}
		return median(v)
	}
	res.set("sqlmini.parse_ns", medianOf(func(it innerTimes) int64 { return it.parse }, true), "ns")
	res.set("engine.prepare_ns", medianOf(func(it innerTimes) int64 { return it.prepare }, false), "ns")
	res.set("engine.exec_ns", medianOf(func(it innerTimes) int64 { return it.exec }, false), "ns")
	res.set("core.query_ns", medianOf(func(it innerTimes) int64 { return it.core }, false), "ns")
	res.set("delay.quote_ns_per_tuple", perTuple(func(it innerTimes) int64 { return it.quote }), "ns")
	res.set("delay.observe_ns_per_tuple", perTuple(func(it innerTimes) int64 { return it.observe }), "ns")
	res.set("detect.observe_ns_per_tuple", perTuple(func(it innerTimes) int64 { return it.detect }), "ns")
	res.set("server.handler_ns", medianNs(rt.handler), "ns")
	res.set("server.resp_bytes_per_query", respBytes, "B")
	res.set("server.allocs_per_query", allocs, "count")
	res.set("trace.overhead_ratio", medianNs(traced)/medianNs(untraced), "ratio")
	res.notef("traced run: %d statements replayed; one-connection loopback p50 %.0f ns (traced %.0f, untraced %.0f)", len(stmts), medianNs(rt.wire), medianNs(traced), medianNs(untraced))
	return nil
}

// spansPerStatement bounds the spans one statement yields; span ids are
// statement*spansPerStatement + position.
const spansPerStatement = 16

// composeSpans builds one nested span tree per statement from the passes'
// durations, laid end to end on one time line. Every span is clipped to
// its parent, so a statement's self times add up to its round trip.
func composeSpans(rt replayTimes) []span {
	spans := make([]span, 0, len(rt.wire)*8)
	clock := int64(0)
	for i := range rt.wire {
		base := len(spans)
		add := func(name string, parent int, start, dur int64) int {
			end := start + dur
			if parent != 0 {
				p := spans[base+parent-1]
				start, end = min(start, p.End), min(end, p.End)
			}
			spans = append(spans, span{Name: name, Req: i, ID: len(spans) - base + 1, Parent: parent, Start: start, End: end})
			return len(spans) - base
		}
		at := clock
		parent := add("wire.roundtrip", 0, at, rt.wire[i])
		if rt.hop != nil {
			parent = add("cluster.hop", parent, at, rt.hop[i])
			parent = add("cluster.route", parent, at, rt.route[i])
		}
		it := rt.inner[i]
		parent = add("server.handler", parent, at, rt.handler[i])
		core := add("core.query", parent, at, it.core)
		prep := add("engine.prepare", core, at, it.prepare)
		if it.parse > 0 {
			add("sqlmini.parse", prep, at, it.parse)
		}
		at += it.prepare
		add("engine.exec", core, at, it.exec)
		at += it.exec
		if it.detect > 0 {
			add("detect.observe", core, at, it.detect)
			at += it.detect
		}
		if it.quote > 0 || it.observe > 0 {
			add("delay.quote", core, at, it.quote)
			add("delay.observe", core, at+it.quote, it.observe)
		}
		clock += rt.wire[i]
	}
	for i := range spans {
		spans[i].ID += spans[i].Req * spansPerStatement
		if spans[i].Parent != 0 {
			spans[i].Parent += spans[i].Req * spansPerStatement
		}
	}
	return spans
}

// ledger turns the span trees into per-layer self times: each layer's
// share of the whole replay, the median self time of the spans the issue
// names, and trace.sum_ratio. Medians only add up where statements are
// alike, so the ratio is taken over the workload's most common statement
// shape: the sum of its per-layer median self times over its median round
// trip.
func ledger(res *runResult, w *workload, stmts []stmt, spans []span) {
	self := selfTimes(spans)
	type shape struct {
		kind stmtKind
		span int32
	}
	shapeOf := func(req int) shape { return shape{stmts[req].kind, stmts[req].span} }
	counts := map[shape]int{}
	for _, st := range stmts {
		counts[shape{st.kind, st.span}]++
	}
	modal := shapeOf(0)
	for i := range stmts { // statement order, so a tie always breaks the same way
		if sh := shapeOf(i); counts[sh] > counts[modal] {
			modal = sh
		}
	}

	totals := map[string]float64{}
	bySpan := map[string][]float64{}           // self time per span name, all statements
	modalLayer := map[string]map[int]float64{} // layer → statement → self time, modal shape only
	var grand float64
	var modalTrips []float64
	for _, sp := range spans {
		l, t := layerOf[sp.Name], float64(self[sp.ID])
		totals[l] += t
		grand += t
		bySpan[sp.Name] = append(bySpan[sp.Name], t)
		if shapeOf(sp.Req) == modal {
			if modalLayer[l] == nil {
				modalLayer[l] = map[int]float64{}
			}
			modalLayer[l][sp.Req] += t
			if sp.Parent == 0 {
				modalTrips = append(modalTrips, float64(sp.End-sp.Start))
			}
		}
	}
	var sumMedians float64
	for _, l := range layerOrder {
		var v []float64
		for _, t := range modalLayer[l] {
			v = append(v, t)
		}
		sumMedians += median(v)
		res.notef("layer %-8s %5.1f%% of replayed time; median self time on the modal statement %8.0f ns", l, 100*totals[l]/grand, median(v))
	}
	var intended float64
	for _, l := range w.intended {
		intended += totals[l] / grand
	}
	res.notef("intended layers %v hold %.1f%% of replayed time; modal statement shape: kind %d span %d, %d of %d statements", w.intended, 100*intended, modal.kind, modal.span, counts[modal], len(stmts))
	res.set("trace.intended_share", intended, "ratio")
	res.set("trace.sum_ratio", sumMedians/median(modalTrips), "ratio")
	res.set("core.self_ns", median(bySpan["core.query"]), "ns")
	res.set("server.self_ns", median(bySpan["server.handler"]), "ns")
	res.set("cluster.route_ns", median(bySpan["cluster.route"]), "ns")
	res.set("cluster.hop_ns", median(bySpan["cluster.hop"]), "ns")
	res.set("wire.roundtrip_ns", median(bySpan["wire.roundtrip"]), "ns")
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts reports the count-based per-layer metrics: deltas of the
// server's /metrics and of the child's own statistics across the
// closed-loop window.
func (s runSpec) layerCounts(res *runResult, w *workload, before, after snap, closed *phaseResult) {
	d := func(name string) float64 { return after.counters[name] - before.counters[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ok := float64(len(closed.samples))
	var writes float64
	for _, sm := range closed.samples {
		if sm.write {
			writes++
		}
	}
	res.set("engine.plan_cache_hit_ratio", ratio(d("engine_plan_cache_hits"), d("engine_plan_cache_hits")+d("engine_plan_cache_misses")), "ratio")
	res.set("engine.write_latch_wait_ratio", ratio(d("engine_write_latch_waits"), d("engine_write_latch_acquisitions")), "ratio")
	res.set("storage.pool_hit_ratio", ratio(d("engine_pool_hits"), d("engine_pool_hits")+d("engine_pool_misses")), "ratio")
	res.set("storage.pool_evicts_per_query", ratio(d("engine_pool_evicts"), ok), "count")
	res.set("storage.wal_records_per_commit", ratio(d("wal_group_batched_records"), d("wal_group_commits")), "count")
	res.set("storage.wal_fsyncs_per_commit", ratio(d("wal_group_fsyncs"), d("wal_group_commits")), "count")
	res.set("storage.bytes_per_user_byte", ratio(float64(after.stats.DirBytes), float64(w.userBytes())), "ratio")
	res.set("core.tuples_per_query", ratio(d("shield_tuples_charged_total"), d("shield_queries_served_total")), "count")
	cache := d("shield_price_cache_hits_total") + d("shield_price_cache_misses_total") + d("shield_price_cache_stale_total")
	res.set("delay.price_cache_hit_ratio", ratio(d("shield_price_cache_hits_total"), cache), "ratio")
	res.set("detect.tracked_principals", after.counters["shield_detect_tracked_principals"], "count")
	// On the cluster the shield counters are summed over the shards, so
	// they count legs: shard statements per router statement.
	res.set("cluster.fanouts_per_write", ratio(d("shield_write_statements_total"), d("cluster_partition_single_writes_total")), "count")
	res.set("cluster.scatter_legs_per_scan", ratio(d("shield_queries_served_total")-d("cluster_partition_single_reads_total"), d("cluster_partition_scatter_total")), "count")
	res.set("cluster.read_retries", d("cluster_read_retries_total"), "count")
	res.set("cluster.peer_errors", d("cluster_peer_errors_total"), "count")
	res.set("wire.req_bytes", ratio(float64(closed.reqBytes), float64(closed.attempted)), "B")
	res.set("wire.resp_bytes", ratio(float64(closed.recvB), float64(closed.attempted)), "B")
	res.set("proc.allocs_per_query", ratio(float64(after.stats.Mallocs-before.stats.Mallocs), ok), "count")
	res.set("proc.gc_cycles", float64(after.stats.NumGC-before.stats.NumGC), "count")
	res.set("proc.gc_pause_ms", float64(after.stats.PauseTotalNs-before.stats.PauseTotalNs)/1e6, "ms")
	res.set("proc.heap_peak_mb", float64(after.stats.HeapSysBytes)/(1<<20), "MiB")
	child := float64(after.stats.CPUMicros - before.stats.CPUMicros)
	parent := float64(after.parentCPUMicros - before.parentCPUMicros)
	res.set("loadgen.cpu_share", ratio(parent, parent+child), "ratio")
	// How much of the rate of its quiet quarter the closed loop kept up
	// over the whole window: what the end-to-end metrics' selection set
	// aside, be it the host's disturbance or the program's own stalls.
	_, slices := sliced(closed.samples)
	scores := make([]float64, len(slices))
	for i, sl := range slices {
		scores[i] = -float64(len(sl))
	}
	var quiet, kept, genCPUNs float64
	for i, keep := range quietest(scores, quietShare) {
		if keep {
			quiet += float64(len(slices[i]))
			kept++
			for _, sm := range slices[i] {
				genCPUNs += float64(sm.genCPUNs)
			}
		}
	}
	res.set("loadgen.sustained_share", ratio(ok/closed.elapsed.Seconds(), ratio(quiet, kept*sliceLen.Seconds())), "ratio")
	// The machine-speed reading the end-to-end metrics are scaled by.
	res.set("loadgen.roundtrip_cpu_us", ratio(genCPUNs/1e3, quiet), "us")
	res.notef("closed loop: %d valid replies (%d writes) in %.2fs", len(closed.samples), int(writes), closed.elapsed.Seconds())
}
