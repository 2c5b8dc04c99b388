package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	delaydefense "repro"
	"repro/internal/parthash"
	"repro/internal/zipf"
)

// stmtKind is one statement shape of the benchmark's SQL vocabulary.
type stmtKind uint8

const (
	kPoint  stmtKind = iota // SELECT * FROM items WHERE id = k
	kRange                  // SELECT * FROM items WHERE id BETWEEN a AND a+L-1
	kCount                  // SELECT COUNT(*) FROM items WHERE id BETWEEN a AND a+L-1
	kTopN                   // SELECT * … BETWEEN a AND a+L-1 ORDER BY id LIMIT topNLimit
	kUpdate                 // UPDATE items SET v = '…' WHERE id = k
	kInsert                 // INSERT INTO items VALUES (k, '…')
	kDelete                 // DELETE FROM items WHERE id = k
)

const topNLimit = 20

func (k stmtKind) isWrite() bool { return k >= kUpdate }

// mixEntry gives one statement kind its share of a workload's traffic.
// spans lists the range lengths the kind draws from with their weights
// (nil for single-key statements).
type mixEntry struct {
	kind  stmtKind
	share float64
	spans []spanWeight
}

type spanWeight struct {
	length int
	weight float64
}

// workload is one fixture plus one traffic mix. Every server setting not
// named here is cmd/delaydb's flag default; -n is always the fixture's
// row count.
type workload struct {
	name string
	why  string

	rows      int
	rowBytes  int
	zipfAlpha float64
	// identities is the number of principals. The first robots of them
	// send robotShare of the traffic, ignore the mix and walk the key
	// space in order, 100 keys a query, so their coverage sketches
	// escalate; the rest are legit and stay far below the detector's
	// grace coverage.
	identities int
	robots     int
	robotShare float64
	mix        []mixEntry

	// openRate is the open-loop arrival rate in requests/second, frozen
	// at about half the closed-loop throughput measured when this
	// benchmark was defined. It is a constant so that a faster server
	// shows as lower latency at the same offered load.
	openRate float64
	// refGenCPUUs is the reference machine speed for this workload: the
	// CPU microseconds the load generator's thread spends per round trip
	// (request write, reply reads) on the reference box in its usual
	// state, frozen when the benchmark was defined. Measured times are
	// scaled by refGenCPUUs over what the same run measured; see
	// closedMetrics.
	refGenCPUUs float64

	detect      bool
	priceCache  int
	wal         bool
	updateRate  bool // -policy updaterate
	shards      int  // 0 = single node
	partitions  int
	replication int

	// replay is how many statements the traced run replays.
	replay int
	// history is how many statements of its own traffic the fixture has
	// already learned from when it starts serving; see seedHistory.
	history int

	// intended names the layers this workload exists to stress; the
	// traced run fails when they hold under a third of replayed time.
	intended []string
}

var workloads = []*workload{
	{
		name: "point_zipf",
		why:  "one-tuple statements make the fixed per-request cost (wire, server decode/encode, core bookkeeping) nearly all of the time; per-tuple layers do almost nothing",
		rows: 20_000, rowBytes: 32, zipfAlpha: 1, identities: 64,
		mix: []mixEntry{
			{kind: kPoint, share: 0.95},
			{kind: kUpdate, share: 0.05},
		},
		openRate: 3000, refGenCPUUs: 10.0, replay: 20_000, history: 240_000,
		intended: []string{"wire", "server"},
	},
	{
		name: "scan_mixed",
		why:  "per-tuple layers (engine scan, pool misses and evictions, batch quote+observe, detect sketches, row encoding) do most of the work; the wire cost is amortised over ~100 rows",
		rows: 200_000, rowBytes: 180, zipfAlpha: 1, identities: 256, robots: 2, robotShare: 0.125,
		mix: []mixEntry{
			{kind: kRange, share: 0.62, spans: []spanWeight{{10, 0.6}, {100, 0.3}, {1000, 0.1}}},
			{kind: kPoint, share: 0.08},
			{kind: kCount, share: 0.10, spans: []spanWeight{{1000, 1}}},
			{kind: kUpdate, share: 0.20},
		},
		openRate: 250, refGenCPUUs: 23.5, replay: 4_000, history: 100_000,
		detect: true, priceCache: 4096,
		intended: []string{"engine", "delay", "detect"},
	},
	{
		name: "write_mix",
		why:  "uses engine and storage the other way round: write sets, page latches, snapshot versions, WAL group commit and 8 MiB checkpoints whose stalls only the tail shows; exercises the update-rate policy",
		rows: 50_000, rowBytes: 64, zipfAlpha: 0.8, identities: 64,
		mix: []mixEntry{
			{kind: kPoint, share: 0.50},
			{kind: kUpdate, share: 0.30},
			{kind: kInsert, share: 0.12},
			{kind: kDelete, share: 0.08},
		},
		openRate: 2500, refGenCPUUs: 11.0, replay: 20_000, history: 600_000,
		wal: true, updateRate: true,
		intended: []string{"engine", "sqlmini", "wire", "server"},
	},
	{
		name: "cluster_mix",
		why:  "the router does most of the work (partition lookup, replica fan-out, k-way merge, second hop over a real socket); single-node workloads never execute it, so a router change must leave them flat",
		rows: 40_000, rowBytes: 64, zipfAlpha: 1, identities: 64,
		mix: []mixEntry{
			{kind: kPoint, share: 0.75},
			{kind: kUpdate, share: 0.15},
			{kind: kTopN, share: 0.05, spans: []spanWeight{{100, 1}}},
			{kind: kCount, share: 0.05, spans: []spanWeight{{100, 1}}},
		},
		openRate: 600, refGenCPUUs: 18.3, replay: 20_000, history: 480_000,
		detect: true, shards: 4, partitions: 64, replication: 2,
		intended: []string{"cluster"},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns a copy of w with its fixture shrunk by div, for the
// smoke mode. Range lengths stay: every fixture keeps well over 1000 rows.
func (w *workload) scaled(div int) *workload {
	c := *w
	c.rows = w.rows / div
	c.history = w.history / div
	return &c
}

// shieldConfig is the workload's delaydb configuration: the command's
// defaults plus the workload's stated settings.
func (w *workload) shieldConfig(clock delaydefense.Clock) delaydefense.Config {
	cfg := delaydefense.Config{
		N: w.rows, Alpha: 1, Beta: 2, C: 1, Cap: 10 * time.Second, DecayRate: 1,
		QueryBurst: 10, PriceCacheSize: w.priceCache, Clock: clock,
		Kind: delaydefense.ByPopularity,
	}
	if w.updateRate {
		cfg.Kind = delaydefense.ByUpdateRate
	}
	if w.detect {
		cfg.Detect = &delaydefense.DetectConfig{
			Policy:           delaydefense.EscalationPolicy{Grace: 0.08, Cap: 64},
			JaccardThreshold: 0.35,
		}
	}
	return cfg
}

func (w *workload) engineOptions() []delaydefense.EngineOption {
	if w.wal {
		// -wal without -walsync: the log is written on every commit and
		// fsynced only at checkpoints.
		return []delaydefense.EngineOption{delaydefense.WithWAL(false)}
	}
	return nil
}

// userBytes is the row data the fixture loads, the denominator of
// storage.bytes_per_user_byte.
func (w *workload) userBytes() int64 { return int64(w.rows) * int64(w.rowBytes+8) }

// stmt is one generated statement in compact form; render turns it into
// SQL. key is the single key or the range start, span the range length,
// gen the payload generation a write stores.
type stmt struct {
	kind  stmtKind
	ident uint16
	span  int32
	gen   uint32
	key   int64
}

// Phases keep their generated ids and payload generations apart, so a
// phase never depends on how far an earlier, time-bounded one got.
type phase uint32

const (
	phaseHistory phase = iota + 1
	phaseWarm
	phaseOpen
	phaseClosed
	phaseTrace
)

// insertStride separates the fresh-id ranges of the phases.
const insertStride = 10_000_000

// stream is the deterministic, endless statement sequence of one
// connection in one phase. It depends only on (workload, seed, phase,
// conn, nconn): the server's replies never feed back into it. Statements
// that name a single key only use keys the connection owns
// (key mod nconn == conn), so all operations on one key are ordered on
// one connection and the verify pass knows each key's final value.
type stream struct {
	w           *workload
	conn, nconn int
	ph          phase
	rng         *rand.Rand
	ranks       *zipf.Sampler
	perm        []int32
	cum         []float64 // cumulative mix shares
	seq         uint32
	nextInsert  int64
	inserted    []int64 // ids this stream inserted and has not deleted
	robotCursor []int64
}

// keyPermutation maps popularity rank (0-based) to key, so hot keys are
// scattered over the pages instead of clustered at the front. It is the
// same for every seed: which tuples are popular, and so which shard holds
// them, belongs to the data set; the seed draws the traffic.
func keyPermutation(rows int) []int32 {
	rng := rand.New(rand.NewSource(0x5eed))
	perm := make([]int32, rows)
	for i, p := range rng.Perm(rows) {
		perm[i] = int32(p + 1)
	}
	return perm
}

func newStream(w *workload, seed int64, ph phase, conn, nconn int, perm []int32) *stream {
	dist, err := zipf.New(w.rows, w.zipfAlpha)
	if err != nil {
		panic(err) // workload table is static
	}
	sub := seed*1_000_003 + int64(ph)*1009 + int64(conn)
	s := &stream{
		w: w, conn: conn, nconn: nconn, ph: ph,
		rng:   rand.New(rand.NewSource(sub)),
		ranks: zipf.NewSampler(dist, sub^0x7a69),
		perm:  perm,
	}
	var c float64
	for _, m := range w.mix {
		c += m.share
		s.cum = append(s.cum, c)
	}
	first := int64(w.rows) + int64(ph)*insertStride
	s.nextInsert = first + int64(conn) + 1
	for r := 0; r < w.robots; r++ {
		s.robotCursor = append(s.robotCursor, 1+int64(r)*int64(w.rows/2)+int64(conn)*int64(w.rows/(2*nconn)))
	}
	return s
}

// ownedKey draws a Zipf-ranked key this connection owns.
func (s *stream) ownedKey() int64 {
	for {
		k := int64(s.perm[s.ranks.Next()-1])
		if int(k)%s.nconn == s.conn {
			return k
		}
	}
}

func (s *stream) rangeStart(length int) int64 {
	a := int64(s.perm[s.ranks.Next()-1])
	if max := int64(s.w.rows - length + 1); a > max {
		a = max
	}
	return a
}

func pickSpan(spans []spanWeight, u float64) int {
	for _, sw := range spans {
		if u < sw.weight {
			return sw.length
		}
		u -= sw.weight
	}
	return spans[len(spans)-1].length
}

func (s *stream) next() stmt {
	s.seq++
	st := stmt{gen: uint32(s.ph)<<28 | s.seq}
	if s.w.robots > 0 && s.rng.Float64() < s.w.robotShare {
		st.ident = uint16(s.rng.Intn(s.w.robots))
		const robotSpan = 100
		cur := &s.robotCursor[st.ident]
		if *cur+robotSpan-1 > int64(s.w.rows) {
			*cur = 1
		}
		st.kind, st.key, st.span = kRange, *cur, robotSpan
		*cur += robotSpan
		return st
	}
	st.ident = uint16(s.w.robots + s.rng.Intn(s.w.identities-s.w.robots))
	u := s.rng.Float64()
	m := s.w.mix[len(s.w.mix)-1]
	for i, c := range s.cum {
		if u < c {
			m = s.w.mix[i]
			break
		}
	}
	st.kind = m.kind
	switch m.kind {
	case kPoint, kUpdate:
		st.key = s.ownedKey()
	case kRange, kCount, kTopN:
		st.span = int32(pickSpan(m.spans, s.rng.Float64()))
		st.key = s.rangeStart(int(st.span))
	case kInsert:
		st.key = s.nextInsert
		s.nextInsert += int64(s.nconn)
		s.inserted = append(s.inserted, st.key)
	case kDelete:
		if len(s.inserted) == 0 {
			// Nothing of ours to delete yet: insert instead, so the
			// statement is still a single-row write.
			st.kind = kInsert
			st.key = s.nextInsert
			s.nextInsert += int64(s.nconn)
			s.inserted = append(s.inserted, st.key)
			break
		}
		i := s.rng.Intn(len(s.inserted))
		st.key = s.inserted[i]
		s.inserted[i] = s.inserted[len(s.inserted)-1]
		s.inserted = s.inserted[:len(s.inserted)-1]
	}
	return st
}

// identityName is the X-Identity value of principal i.
func identityName(i uint16) string { return "user-" + strconv.Itoa(int(i)) }

const payloadAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// appendPayload appends the value column of (key, gen): gen 0 is the
// loaded row, anything else the UPDATE or INSERT that carried it.
func appendPayload(buf []byte, seed, key int64, gen uint32, size int) []byte {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(key)<<20 ^ uint64(gen)
	for i := 0; i < size; i += 8 {
		x = parthash.Mix64(x)
		y := x
		for j := i; j < i+8 && j < size; j++ {
			buf = append(buf, payloadAlphabet[y%36])
			y /= 36
		}
	}
	return buf
}

// appendSQL renders st as SQL text.
func (w *workload) appendSQL(buf []byte, seed int64, st stmt) []byte {
	switch st.kind {
	case kPoint:
		buf = append(buf, "SELECT * FROM items WHERE id = "...)
		buf = strconv.AppendInt(buf, st.key, 10)
	case kRange, kCount, kTopN:
		if st.kind == kCount {
			buf = append(buf, "SELECT COUNT(*) FROM items WHERE id BETWEEN "...)
		} else {
			buf = append(buf, "SELECT * FROM items WHERE id BETWEEN "...)
		}
		buf = strconv.AppendInt(buf, st.key, 10)
		buf = append(buf, " AND "...)
		buf = strconv.AppendInt(buf, st.key+int64(st.span)-1, 10)
		if st.kind == kTopN {
			buf = append(buf, " ORDER BY id LIMIT "...)
			buf = strconv.AppendInt(buf, topNLimit, 10)
		}
	case kUpdate:
		buf = append(buf, "UPDATE items SET v = '"...)
		buf = appendPayload(buf, seed, st.key, st.gen, w.rowBytes)
		buf = append(buf, "' WHERE id = "...)
		buf = strconv.AppendInt(buf, st.key, 10)
	case kInsert:
		buf = append(buf, "INSERT INTO items VALUES ("...)
		buf = strconv.AppendInt(buf, st.key, 10)
		buf = append(buf, ", '"...)
		buf = appendPayload(buf, seed, st.key, st.gen, w.rowBytes)
		buf = append(buf, "')"...)
	case kDelete:
		buf = append(buf, "DELETE FROM items WHERE id = "...)
		buf = strconv.AppendInt(buf, st.key, 10)
	}
	return buf
}

// loadStatements returns the fixture's CREATE TABLE followed by batched
// INSERTs of rows 1..rows.
func (w *workload) loadStatements(seed int64) []string {
	const batch = 500
	out := []string{"CREATE TABLE items (id INT PRIMARY KEY, v TEXT)"}
	buf := make([]byte, 0, batch*(w.rowBytes+16))
	for lo := 1; lo <= w.rows; lo += batch {
		buf = append(buf[:0], "INSERT INTO items VALUES "...)
		for id := lo; id < lo+batch && id <= w.rows; id++ {
			if id > lo {
				buf = append(buf, ", "...)
			}
			buf = append(buf, '(')
			buf = strconv.AppendInt(buf, int64(id), 10)
			buf = append(buf, ", '"...)
			buf = appendPayload(buf, seed, int64(id), 0, w.rowBytes)
			buf = append(buf, "')"...)
		}
		out = append(out, string(buf))
	}
	return out
}

// arrivals is the open-loop schedule of one connection: exponential gaps
// at rate/nconn, as offsets from the start of the window.
type arrivals struct {
	rng  *rand.Rand
	mean float64 // nanoseconds between arrivals on this connection
	at   float64
}

func newArrivals(w *workload, seed int64, conn, nconn int) *arrivals {
	return &arrivals{
		rng:  rand.New(rand.NewSource(seed*7_368_787 + int64(conn) + 17)),
		mean: 1e9 * float64(nconn) / w.openRate,
	}
}

// next returns the next arrival's offset in nanoseconds.
func (a *arrivals) next() int64 {
	a.at += a.rng.ExpFloat64() * a.mean
	return int64(a.at)
}
