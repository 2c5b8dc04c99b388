package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/zipf"
)

// Defense is the learned Calgary-shaped defense every attack table runs
// its statements against, through the product: an engine holding the
// catalog as rows, behind a core.Shield on a simulated clock, reached
// directly, through a server handler, or through a cluster.Router over
// such handlers. It holds the catalog's size, β tuned from the trace's
// top count, and the counts a shield learned by serving the trace as
// point SELECTs; every run opens fresh shields that restore them. An
// attacker is a statement stream, one point SELECT per tuple: its bill is
// the sum of the delays it was answered with (QueryStats.Delay, or
// delay_millis through a handler), and its reads count toward popularity
// like anyone else's.
type Defense struct {
	n      int
	cap    time.Duration
	beta   float64
	ids    []uint64
	counts []float64
}

var (
	defensesMu sync.Mutex
	defenses   = map[CalgaryParams]*Defense{}
)

// LearnDefense returns p's learned defense. The trace is replayed once
// per process for each p; later calls share the result.
func LearnDefense(p CalgaryParams) (*Defense, error) {
	defensesMu.Lock()
	defer defensesMu.Unlock()
	if d, ok := defenses[p]; ok {
		return d, nil
	}
	tr, err := calgaryTrace("sybil", p)
	if err != nil {
		return nil, err
	}
	d := &Defense{n: tr.NumObjects, cap: p.Cap}
	if d.beta, err = tunedBeta(tr, trace.CalgaryAlpha, p.Cap, p.CapFraction); err != nil {
		return nil, err
	}
	b := d.newBed()
	defer b.close()
	sh, err := b.node(nil, true)
	for _, id := range tr.Requests {
		if err == nil {
			_, _, err = sh.Query("trace", pointRead(id))
		}
	}
	if err != nil {
		return nil, err
	}
	d.ids, d.counts = sh.Tracker().Export()
	defenses[p] = d
	return d, nil
}

// catalog is every tuple id, in order.
func (d *Defense) catalog() []uint64 {
	ids := make([]uint64, d.n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

func pointRead(id uint64) string {
	return "SELECT * FROM items WHERE id = " + strconv.FormatUint(id, 10)
}

// bed is one run's deployment: its engines, in a scratch directory, and
// the simulated clock every shield and router of the run shares.
type bed struct {
	*Defense
	clock *vclock.Simulated
	dir   string
	err   error
	dbs   []*engine.Database
	nodes []*cluster.Node
}

func (d *Defense) newBed() *bed {
	b := &bed{Defense: d, clock: vclock.NewSimulated(time.Date(2004, 8, 30, 0, 0, 0, 0, time.UTC))}
	b.dir, b.err = os.MkdirTemp("", "extractbench-attack-*")
	return b
}

func (b *bed) close() {
	for _, n := range b.nodes {
		n.Close()
	}
	for _, db := range b.dbs {
		db.Close()
	}
	os.RemoveAll(b.dir)
}

// node opens a shield over a fresh engine, with the catalog's rows when
// rows is set (a shard's arrive through its router); det enables
// detection.
func (b *bed) node(det *detect.Config, rows bool) (*core.Shield, error) {
	if b.err != nil {
		return nil, b.err
	}
	db, err := engine.Open(fmt.Sprintf("%s/%d", b.dir, len(b.dbs)))
	if err != nil {
		return nil, err
	}
	b.dbs = append(b.dbs, db)
	if rows {
		if _, err := db.ExecScript(b.load()); err != nil {
			return nil, err
		}
	}
	return core.New(db, core.Config{N: b.n, Alpha: trace.CalgaryAlpha, Beta: b.beta, Cap: b.cap, Clock: b.clock, Detect: det})
}

// load is the script that creates the catalog's table and rows.
func (b *bed) load() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE items (id INT PRIMARY KEY, v TEXT); INSERT INTO items VALUES ")
	for i := range b.n {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'v%d')", i, i)
	}
	return sb.String()
}

// shield opens one node holding the catalog, its learned counts restored.
func (b *bed) shield(det *detect.Config) (*core.Shield, error) {
	sh, err := b.node(det, true)
	if err == nil {
		err = sh.LoadCounts(b.restore)
	}
	return sh, err
}

func (b *bed) restore() ([]uint64, []float64, error) { return b.ids, b.counts, nil }

// deployment is a router over shard servers, each shard holding its
// partitions' rows and every learned count, so a tuple is priced on its
// shard as it is on one node.
type deployment struct {
	router  *cluster.Router
	front   front   // the router's front door
	shards  []front // each shard's own front door
	shields []*core.Shield
	chaos   []*cluster.Chaos
}

// cluster builds a deployment of shards shards, partitions partitions at
// replication r (partitions 0: every shard holds every tuple).
func (b *bed) cluster(shards, partitions, r int, det *detect.Config) (*deployment, error) {
	dep := &deployment{}
	nodes := make([]*cluster.Node, shards)
	for i := range nodes {
		sh, err := b.node(det, false)
		if err != nil {
			return nil, err
		}
		srv, err := server.New(sh)
		if err != nil {
			return nil, err
		}
		var c *cluster.Chaos
		nodes[i], c = cluster.NewChaosNode(fmt.Sprintf("shard-%d", i), srv.Handler())
		b.nodes = append(b.nodes, nodes[i])
		dep.shields, dep.chaos = append(dep.shields, sh), append(dep.chaos, c)
		dep.shards = append(dep.shards, handlerFront(srv.Handler()))
	}
	router, err := cluster.NewRouter(nodes, cluster.Config{Partitions: partitions, Replication: r, Clock: b.clock})
	if err != nil {
		return nil, err
	}
	if err := router.ExecScript(b.load()); err != nil {
		return nil, err
	}
	for _, sh := range dep.shields {
		if err := sh.LoadCounts(b.restore); err != nil {
			return nil, err
		}
	}
	dep.router, dep.front = router, handlerFront(router.Handler())
	return dep, nil
}

// front is a door a principal's statements go through; it answers with
// the delay the statement was charged.
type front func(principal, sql string) (time.Duration, error)

func shieldFront(sh *core.Shield) front {
	return func(principal, sql string) (time.Duration, error) {
		_, qs, err := sh.Query(principal, sql)
		return qs.Delay, err
	}
}

// handlerFront sends statements through an HTTP handler — a shard's
// server or a router — as POST /query with the principal in X-Identity,
// and reads the reply's delay_millis, its last field.
func handlerFront(h http.Handler) front {
	req := http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/query"}, Header: http.Header{}}
	return func(principal, sql string) (time.Duration, error) {
		body := server.AppendQueryRequest(nil, server.QueryRequest{SQL: sql})
		req.Header["X-Identity"] = []string{principal}
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, &req)
		_, ms, ok := bytes.Cut(rec.Body.Bytes(), []byte(`"delay_millis":`))
		if rec.Code != http.StatusOK || !ok {
			return 0, fmt.Errorf("experiments: %s: HTTP %d: %s", sql, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		millis, err := strconv.ParseFloat(string(bytes.TrimRight(ms, "}\n")), 64)
		return time.Duration(millis * float64(time.Millisecond)), err
	}
}

// sybilBatch is how many statements each principal sends per lockstep
// round: the principals take turns a round at a time, so a detector sees
// their streams interleaved.
const sybilBatch = 50

// lockstep sends principal i's stream, one point read per tuple, to
// route(i, round), a round of sybilBatch reads at a time, the principals
// taking turns; between (when non-nil) runs after every round. It returns
// each principal's bill: the sum of the delays its reads were charged.
func lockstep(streams [][]uint64, route func(i, round int) front, between func(round int) error) ([]time.Duration, error) {
	bills := make([]time.Duration, len(streams))
	names := make([]string, len(streams))
	for i := range names {
		names[i] = fmt.Sprintf("sybil-%d", i)
	}
	for pos, round := 0, 0; ; pos, round = pos+sybilBatch, round+1 {
		sent := false
		for i, stream := range streams {
			to := route(i, round)
			if to == nil {
				return nil, errors.New("experiments: nil front")
			}
			for _, id := range stream[min(pos, len(stream)):min(pos+sybilBatch, len(stream))] {
				d, err := to(names[i], pointRead(id))
				if err != nil {
					return nil, err
				}
				bills[i], sent = bills[i]+d, true
			}
		}
		if !sent {
			return bills, nil
		}
		if between != nil {
			if err := between(round); err != nil {
				return nil, err
			}
		}
	}
}

// Extract runs a k-identity extraction of the whole catalog against a
// fresh node with detection off, identity i reading tuples i, i+k, i+2k,
// …, and returns its wall time: the identities read in parallel, so the
// slowest one's bill, plus k·t to register them one per registration
// interval t (§2.4's throttle). Extract(1, 0) is the single-identity
// baseline every attack table compares against.
func (d *Defense) Extract(k int, t time.Duration) (time.Duration, error) {
	if k < 1 {
		return 0, errors.New("experiments: k < 1")
	}
	streams := make([][]uint64, k)
	for i, id := range d.catalog() {
		streams[i%k] = append(streams[i%k], id)
	}
	b := d.newBed()
	defer b.close()
	sh, err := b.shield(nil)
	if err != nil {
		return 0, err
	}
	to := shieldFront(sh)
	bills, err := lockstep(streams, func(int, int) front { return to }, nil)
	if err != nil {
		return 0, err
	}
	return slices.Max(bills) + time.Duration(k)*t, nil
}

// inParallel runs job(n-1) down to job(0) on up to GOMAXPROCS goroutines
// and returns their errors joined. Every job opens its own bed, with its
// own clock, so the order the jobs run in moves no number.
func inParallel(n int, job func(i int) error) error {
	errs := make([]error, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			errs[i] = job(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// legit sends p's Zipf readers' point reads through to and returns the
// median delay they were charged (on) next to the median of what each
// read would have cost without detection, quoted by its serving shield
// just before it ran (off).
func (p SybilDetectionParams) legit(n int, to front, serving func(id uint64) *core.Shield) (off, on time.Duration, err error) {
	dist, err := zipf.New(n, p.LegitAlpha)
	if err != nil {
		return 0, 0, err
	}
	sampler := zipf.NewSampler(dist, p.Seed+1)
	var offs, ons []float64
	for u := range p.LegitUsers {
		for range p.LegitQueries {
			id := uint64(sampler.Next() - 1)
			offs = append(offs, serving(id).QuoteExtraction([]uint64{id}).Seconds())
			d, err := to(fmt.Sprintf("user-%d", u), pointRead(id))
			if err != nil {
				return 0, 0, err
			}
			ons = append(ons, d.Seconds())
		}
	}
	return delay.SecondsToDuration(medianSeconds(offs)), delay.SecondsToDuration(medianSeconds(ons)), nil
}
