// Command delaydb serves a delay-defended database over HTTP — the
// paper's front door as a runnable server.
//
// Usage:
//
//	delaydb -dir ./data -addr :8080 [-admin-addr 127.0.0.1:8081] -n 100000 [-alpha 1.0] [-beta 2.0]
//	        [-cap 10s] [-decay 1.0] [-policy popularity|updaterate] [-c 1.0]
//	        [-rate 0] [-burst 10] [-subnets] [-reginterval 0]
//	        [-wal] [-walsync] [-init schema.sql] [-writers a,b] [-deadline 0]
//	        [-detect] [-detect-grace 0.08] [-detect-cap 64] [-detect-jaccard 0.35]
//	        [-readheadertimeout 5s] [-idletimeout 2m] [-drain 30s]
//
// Two listeners. -addr is the front door clients reach, and serves only
// POST /query {"sql": "..."} (identity from X-Identity header or client
// address), POST /register {"identity": "..."}, GET /stats and GET
// /healthz. -admin-addr (loopback by default) serves those and every
// admin route: GET /metrics (instrument snapshot as JSON, including the
// delay-seconds histogram, rejection counters, and detection gauges),
// GET /admin/suspects (ranked extraction suspects when -detect is on),
// GET /admin/topk, POST /admin/quote, the cluster's sketch, schema and
// migration routes, and net/http/pprof under /debug/pprof/.
// A non-SELECT statement on /query runs only for an identity listed in
// -writers; anyone else's gets 403 and does not execute. The list is
// empty by default, so no client writes over HTTP.
//
// Cluster modes:
//
//	delaydb -cluster 4 [-partitions 64 [-replication 2]]
//	        [-antientropy 5s] [-antientropy-floor 0.01] [-rate 0] [-burst 10]
//	        [-maxinflight 1024] [-shard-timeout 0] ...
//	delaydb -router -peers http://10.0.0.1:8081,http://10.0.0.2:8081 ...
//
// -cluster N opens N shards under -dir (shard-0 … shard-N-1), each on
// its own 127.0.0.1 port serving every route, as a default -admin-addr
// does, and serves the cluster router in front of them; -router instead
// fronts running delaydb shards over HTTP (data flags are ignored).
// Either way -rate and -burst meter each principal at the router (the
// -cluster shards run no limiter), POST /register goes to the first
// readable shard, whose registration throttle answers it, and the
// router keeps a small pool of persistent connections to each shard
// (the shard transport, internal/cluster/peerconn.go; its dial count
// and idle pool size are cluster_peer_dials_total and
// cluster_peer_idle_conns on /metrics). Each -peers entry is the
// http:// or https:// base URL of a shard's -admin-addr listener,
// checked at start-up: the router calls its admin routes too.
// Either way every statement routes by tuple through one versioned
// partition map: tuples hash (by INT primary key) to a partition, and
// each partition lives on a replica group of shards. Point queries go
// to the first readable replica of the tuple's group and fail over
// inside it; a single-key write applies to every replica of the group
// in router order and acks once a read-serving replica has it;
// multi-row INSERTs split into per-shard slices; DDL applies on every
// shard; and scans/aggregates scatter to one live replica per partition
// and merge at the front door (order-preserving merge for ORDER BY,
// partial-aggregate combination, LIMIT early-cancel). The -init script
// runs through the router so every row loads onto exactly its owners.
//
// -partitions P -replication R places each of P partitions on R shards.
// -partitions 0 (the default) is full replication, expressed as the
// R = N map: every shard holds every tuple, every write reaches every
// shard, and a tuple's reads (and so its access count) still go to one
// shard — its partition's primary. A periodic anti-entropy round
// merges per-principal detection sketches across shards, so a scan
// whose reads land on different shards still prices like extraction. A
// peer back from an outage rejoins writes-only ("resync" in /healthz)
// until POST /admin/resync re-copies its partitions from a readable
// replica (any layout); only that returns it to the read rotation. The
// router serves the same two listeners as a shard, with GET
// /stats?node=<name> pinning on both. -shard-timeout bounds each
// router→shard RPC; a shard slower than the deadline is treated as
// failed and latched out of the read plane. The live map is served at
// GET /admin/partition-map; POST /admin/rebalance with {"version": v+1,
// "replicas": [[...], ...]} (or a bare "replication") is the one way to
// change it: the background tuple migrator streams the moved partitions
// owner→owner with dual-write fencing and installs the new map only once
// every slice is copied — GET /admin/rebalance reports its progress, and
// a failed migration rolls the map back. Requests may pin
// X-Partition-Version and are rejected retryably (409) when the map has
// moved on.
//
// With -deadline set, a query whose policy delay outlives the budget is
// cancelled and answered with HTTP 504; the delay is still charged, so
// impatient clients cannot probe prices for free.
//
// On SIGTERM or SIGINT the server drains: the listener closes, in-flight
// queries (policy delays included) get up to -drain to finish, then the
// engine flushes and closes so the next start recovers nothing. A second
// signal aborts the drain immediately.
//
// Fault injection (testing only): set DELAYDB_FAULTS to a failpoint spec
// such as "pager.read=err@p0.001;wal.append=latency:2ms@every10" to arm
// the storage failpoints at startup, and DELAYDB_FAULT_SEED to make
// probabilistic rules deterministic. See internal/fault.Parse for the
// grammar. Unset means zero overhead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	delaydefense "repro"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		log.Fatalf("delaydb: %v", err)
	}
}

// listening is what run sends on ready: the concrete addresses of the
// public and the admin listener.
type listening struct{ public, admin string }

// run is main with its environment made explicit so the kill test can
// drive a whole server lifecycle in-process: args are the command-line
// flags, stdout receives the startup banner, and ready (when non-nil)
// is sent the listeners' concrete addresses once both are accepting.
func run(args []string, stdout io.Writer, ready chan<- listening) error {
	fs := flag.NewFlagSet("delaydb", flag.ContinueOnError)
	var (
		dir         = fs.String("dir", "./delaydb-data", "database directory")
		addr        = fs.String("addr", ":8080", "public listen address: POST /query, POST /register, GET /stats and GET /healthz only")
		adminAddr   = fs.String("admin-addr", "127.0.0.1:8081", "admin listen address: every route, the admin ones (/metrics, /admin/*) included, plus net/http/pprof; keep it off the public network")
		n           = fs.Int("n", 100_000, "dataset size used by the delay formulas")
		alpha       = fs.Float64("alpha", 1.0, "assumed workload skew (Zipf parameter)")
		beta        = fs.Float64("beta", 2.0, "extraction penalty exponent")
		capDur      = fs.Duration("cap", 10*time.Second, "maximum delay per tuple (dmax)")
		decay       = fs.Float64("decay", 1.0, "access-count decay rate (1 = keep full history)")
		policy      = fs.String("policy", "popularity", "delay policy: popularity or updaterate")
		c           = fs.Float64("c", 1.0, "update-rate policy constant (Eq 9)")
		rate        = fs.Float64("rate", 0, "per-identity queries/second at the door clients reach: the node, or the router in cluster/router mode (0 = unlimited)")
		burst       = fs.Float64("burst", 10, "per-identity burst at the door clients reach")
		subnets     = fs.Bool("subnets", false, "aggregate identities by /24 (IPv4) or /48 (IPv6)")
		regInterval = fs.Duration("reginterval", 0, "minimum interval between new registrations (0 = off)")
		deadline    = fs.Duration("deadline", 0, "per-request query deadline; exceeding it returns 504 with the delay still charged (0 = none)")
		wal         = fs.Bool("wal", false, "enable write-ahead logging with crash recovery")
		walSync     = fs.Bool("walsync", false, "fsync the WAL on every commit (implies -wal)")
		initFile    = fs.String("init", "", "SQL script (semicolon-separated) executed on the admin path at startup")
		writers     = fs.String("writers", "", "comma-separated identities whose non-SELECT statements run over HTTP; anyone else's get 403 (empty = no one writes over HTTP; -init still runs)")

		readHeaderTimeout = fs.Duration("readheadertimeout", 5*time.Second, "time limit for reading a request's headers (slowloris guard)")
		idleTimeout       = fs.Duration("idletimeout", 2*time.Minute, "keep-alive connection idle limit")
		drain             = fs.Duration("drain", 30*time.Second, "shutdown grace for in-flight queries after SIGTERM/SIGINT")

		detectOn      = fs.Bool("detect", false, "enable extraction detection (coverage sketches + escalating surcharges)")
		detectGrace   = fs.Float64("detect-grace", 0.08, "coverage fraction below which no surcharge applies, in (0, 1]")
		detectCap     = fs.Float64("detect-cap", 64, "maximum delay multiplier for detected extractors, finite and at least 1")
		detectJaccard = fs.Float64("detect-jaccard", 0.35, "signature similarity threshold for coalition clustering, in (0, 1]")

		clusterN    = fs.Int("cluster", 0, "serve N shards in this process behind the cluster router (0 = single node)")
		routerOnly  = fs.Bool("router", false, "serve a data-less cluster router fronting the -peers shards")
		peers       = fs.String("peers", "", "comma-separated base URLs of the shards' -admin-addr listeners for -router mode (e.g. http://10.0.0.1:8081,http://10.0.0.2:8081)")
		aeEvery     = fs.Duration("antientropy", cluster.DefaultExchangeEvery, "interval between anti-entropy sketch-exchange rounds in cluster/router mode (0 = off)")
		aeFloor     = fs.Float64("antientropy-floor", cluster.DefaultExportFloor, "minimum local coverage fraction before a principal's sketches are gossiped")
		maxInFlight = fs.Int("maxinflight", cluster.DefaultMaxInFlight, "router edge admission: max queries in flight across the cluster")
		partitions  = fs.Int("partitions", 0, "hash-partition tuples across shards into this many partitions; point queries route to the tuple's replica group, scans scatter-gather (0 = full replication: the same map with every shard in every group, -replication ignored)")
		replication = fs.Int("replication", 1, "replica count per partition with -partitions > 0: writes apply to every replica, point reads fail over inside the group, scans pick one live replica per partition")
		shardTO     = fs.Duration("shard-timeout", 0, "per-shard RPC deadline in cluster/router mode; an RPC exceeding it counts as a shard failure and latches the peer (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The failpoint env knobs arm before any storage I/O so open-time
	// recovery is injectable too.
	if spec := os.Getenv("DELAYDB_FAULTS"); spec != "" {
		var seed uint64 = 1
		if s := os.Getenv("DELAYDB_FAULT_SEED"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return fmt.Errorf("DELAYDB_FAULT_SEED: %w", err)
			}
			seed = v
		}
		reg, err := fault.Parse(spec, seed)
		if err != nil {
			return fmt.Errorf("DELAYDB_FAULTS: %w", err)
		}
		fault.Enable(reg)
		defer fault.Disable()
		fmt.Fprintf(stdout, "delaydb: fault injection armed: %s\n", spec)
	}

	cfg := delaydefense.Config{
		N:                    *n,
		Alpha:                *alpha,
		Beta:                 *beta,
		C:                    *c,
		Cap:                  *capDur,
		DecayRate:            *decay,
		QueryRate:            *rate,
		QueryBurst:           *burst,
		SubnetAggregation:    *subnets,
		RegistrationInterval: *regInterval,
		Writers:              make(map[string]bool),
	}
	for _, name := range strings.Split(*writers, ",") {
		if name = strings.TrimSpace(name); name != "" {
			cfg.Writers[name] = true
		}
	}
	if *detectOn {
		cfg.Detect = &delaydefense.DetectConfig{
			Policy:           delaydefense.EscalationPolicy{Grace: *detectGrace, Cap: *detectCap},
			JaccardThreshold: *detectJaccard,
		}
	}
	switch *policy {
	case "popularity":
		cfg.Kind = delaydefense.ByPopularity
	case "updaterate":
		cfg.Kind = delaydefense.ByUpdateRate
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	var opts []delaydefense.EngineOption
	if *wal || *walSync {
		opts = append(opts, delaydefense.WithWAL(*walSync))
	}
	// serveAndDrain owns the listener lifecycle every mode shares: serve
	// public on -addr and admin, with net/http/pprof beside it, on
	// -admin-addr until SIGTERM/SIGINT, drain in-flight queries (policy
	// delays included) on both for up to -drain, then run closeAll so
	// engines flush and the next start recovers nothing. A second signal
	// aborts the drain.
	serveAndDrain := func(public, admin http.Handler, banner func(net.Addr), closeAll func() error) error {
		adminMux := http.NewServeMux()
		adminMux.Handle("/", admin)
		adminMux.HandleFunc("/debug/pprof/", pprof.Index)
		adminMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		adminMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		adminMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		adminMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		var (
			lns  []net.Listener
			srvs []*http.Server
		)
		for _, l := range []struct {
			addr string
			h    http.Handler
		}{{*addr, public}, {*adminAddr, adminMux}} {
			ln, err := net.Listen("tcp", l.addr)
			if err != nil {
				for _, ln := range lns {
					ln.Close()
				}
				closeAll()
				return err
			}
			lns = append(lns, ln)
			srvs = append(srvs, &http.Server{
				Handler: l.h,
				// ReadHeaderTimeout bounds header dribbling; the request
				// *body* and response are governed by the query deadline
				// instead, since a legitimate delayed query can stay open
				// for the full policy delay. IdleTimeout reclaims parked
				// keep-alive connections.
				ReadHeaderTimeout: *readHeaderTimeout,
				IdleTimeout:       *idleTimeout,
			})
		}

		banner(lns[0].Addr())
		fmt.Fprintf(stdout, "delaydb: admin routes, GET /metrics and /debug/pprof/ on %s\n", lns[1].Addr())
		if ready != nil {
			ready <- listening{public: lns[0].Addr().String(), admin: lns[1].Addr().String()}
		}

		// Serve until the listeners close (shutdown) or a server dies.
		serveErr := make(chan error, len(srvs))
		for i, srv := range srvs {
			go func() { serveErr <- srv.Serve(lns[i]) }()
		}

		sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()

		select {
		case err := <-serveErr:
			for _, srv := range srvs {
				srv.Close()
			}
			closeAll()
			return err
		case <-sigCtx.Done():
			// stop() restores default signal handling, so a second
			// SIGTERM kills immediately.
			stop()
			fmt.Fprintf(stdout, "delaydb: signal received, draining for up to %v\n", *drain)
			shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
			var err error
			for _, srv := range srvs {
				if serr := srv.Shutdown(shutCtx); serr != nil && err == nil {
					err = serr
				}
			}
			cancel()
			if err != nil {
				fmt.Fprintf(stdout, "delaydb: drain incomplete: %v\n", err)
			}
			for range srvs {
				<-serveErr // Serve has returned http.ErrServerClosed
			}
			if cerr := closeAll(); cerr != nil {
				return fmt.Errorf("closing database: %w", cerr)
			}
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("drain: %w", err)
			}
			fmt.Fprintf(stdout, "delaydb: drained and closed cleanly\n")
			return nil
		}
	}

	// openNode opens one data directory with the shared config; used
	// once for single-node mode and per shard for -cluster.
	openNode := func(dataDir string) (*delaydefense.DB, *server.Server, error) {
		db, err := delaydefense.Open(dataDir, cfg, opts...)
		if err != nil {
			return nil, nil, err
		}
		srv, err := server.New(db.Shield(), server.WithQueryDeadline(*deadline))
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, srv, nil
	}

	if *routerOnly && *clusterN > 0 {
		return errors.New("-router and -cluster are mutually exclusive")
	}
	if *routerOnly || *clusterN > 0 {
		var (
			nodes   []*cluster.Node
			closers []func() error
		)
		closeAll := func() error {
			var first error
			for _, c := range closers {
				if err := c(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		if *routerOnly {
			if *peers == "" {
				return errors.New("-router requires -peers")
			}
			for i, raw := range strings.Split(*peers, ",") {
				base := strings.TrimRight(strings.TrimSpace(raw), "/")
				if base == "" {
					continue
				}
				if _, err := cluster.ParsePeerURL(base); err != nil {
					return fmt.Errorf("-peers: %w", err)
				}
				nodes = append(nodes, cluster.NewHTTPNode(fmt.Sprintf("shard-%d", i), base))
			}
			if len(nodes) == 0 {
				return errors.New("-peers lists no shard URLs")
			}
		} else {
			// The -init script reaches the shards as the router's own
			// identity, which the router refuses from any client. The
			// router meters clients (-rate/-burst), so the shards do not.
			cfg.Writers[cluster.InitIdentity] = true
			cfg.QueryRate = 0
			for i := 0; i < *clusterN; i++ {
				db, srv, err := openNode(filepath.Join(*dir, fmt.Sprintf("shard-%d", i)))
				if err != nil {
					closeAll()
					return err
				}
				// The shard's server stops before its database closes.
				node := cluster.NewLocalNode(fmt.Sprintf("shard-%d", i), srv.Handler())
				closers = append(closers, node.Close, db.Close)
				nodes = append(nodes, node)
			}
		}
		rt, err := cluster.NewRouter(nodes, cluster.Config{
			AdmitRate:    *rate,
			AdmitBurst:   *burst,
			MaxInFlight:  *maxInFlight,
			Partitions:   *partitions,
			Replication:  *replication,
			ShardTimeout: *shardTO,
		})
		if err != nil {
			closeAll()
			return err
		}
		if *clusterN > 0 && *initFile != "" {
			script, err := os.ReadFile(*initFile)
			if err != nil {
				closeAll()
				return fmt.Errorf("reading init script: %w", err)
			}
			if err := rt.ExecScript(string(script)); err != nil {
				closeAll()
				return fmt.Errorf("init script (via router): %w", err)
			}
			fmt.Fprintf(stdout, "delaydb: init script ran through the router across %d shards\n", len(nodes))
		}
		if *aeEvery > 0 {
			rt.StartAntiEntropy(*aeEvery, *aeFloor)
			// Stop the exchange loop before the shards close under it.
			closers = append([]func() error{func() error { rt.StopAntiEntropy(); return nil }}, closers...)
		}
		mode := "cluster"
		if *routerOnly {
			mode = "router"
		}
		banner := func(a net.Addr) {
			pm := rt.CurrentPartitionMap()
			fmt.Fprintf(stdout, "delaydb: %s of %d shards on %s (%d partitions x %d replicas, antientropy=%v, rate=%g qps)\n",
				mode, len(nodes), a, len(pm.Owners), len(pm.GroupOf(0)), *aeEvery, *rate)
			for _, n := range nodes {
				fmt.Fprintf(stdout, "delaydb: %s on %s\n", n.Name(), n.Addr())
			}
		}
		return serveAndDrain(rt.PublicHandler(), rt.Handler(), banner, closeAll)
	}

	db, srv, err := openNode(*dir)
	if err != nil {
		return err
	}
	// A cluster's script flows through the router instead (above), so
	// each row lands on its owner shards.
	if *initFile != "" {
		script, err := os.ReadFile(*initFile)
		if err != nil {
			db.Close()
			return fmt.Errorf("reading init script: %w", err)
		}
		results, err := db.ExecScript(string(script))
		if err != nil {
			db.Close()
			return fmt.Errorf("init script (%s): %w", *dir, err)
		}
		fmt.Fprintf(stdout, "delaydb: init script ran %d statements in %s\n", len(results), *dir)
	}
	banner := func(a net.Addr) {
		fmt.Fprintf(stdout, "delaydb: serving %s on %s (policy=%s, cap=%v, N=%d, deadline=%v)\n",
			*dir, a, *policy, *capDur, *n, *deadline)
	}
	return serveAndDrain(srv.PublicHandler(), srv.Handler(), banner, db.Close)
}
