# delaydefense — reproduction of "Using Delay to Defend Against Database
# Extraction" (SDM @ VLDB 2004).

GO ?= go

.PHONY: all check fmtcheck build vet test race race-hot loc cover bench bench-shield bench-engine bench-cluster bench-smoke bench-ledger-smoke bench-detect torture torture-cluster torture-full repro repro-fast examples fuzz fuzz-smoke clean

all: build vet test

# What CI runs: everything that must pass before a merge.
check: fmtcheck
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) race-hot
	$(MAKE) fuzz-smoke
	$(MAKE) torture
	$(MAKE) torture-cluster
	$(MAKE) bench-ledger-smoke
	$(MAKE) repro-fast
	$(MAKE) examples

# Fails, naming the files, when any Go file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The targeted -race pass of `make check` and CI: the packages with real
# concurrency (the shield's cancellable query path, the rate limiter, the
# delay gate's batch quote, the access tracker over its rank index, the
# extraction detector, the B+tree's readers under its RWMutex, the
# striped buffer pool + parallel scan executor, the cluster router's
# fan-out + anti-entropy loop, and the front door's pooled codec
# buffers) without the cost of racing the whole tree. This list is the
# only copy.
RACE_HOT = core ratelimit delay counters ostree detect index engine storage cluster server
# The engine's write-race tests fail on an interleaving, not on every run,
# so they run 20 times each, and so do the reads that go around the pool
# while writers republish and the sweep evicts their pages.
RACE_WRITES = TestConcurrentWritersSnapshotAtomicity|TestConcurrentInsertDeleteAtomicity|TestConcurrentKeyChangeUpdates
RACE_STREAM = TestStreamedRangeReadsItsSnapshot|TestStreamedReadsUnderWriters
# The full-heap reader at 1, 2 and 4 Ps: the claim-window bound and the
# aggregate's bits must not depend on how many the host has.
RACE_SCAN = TestParallelScan|TestFullScanAggregateIgnoresWorkers
race-hot:
	$(GO) test -race $(RACE_HOT:%=./internal/%/...)
	$(GO) test -race -count=20 -run '^($(RACE_WRITES)|$(RACE_STREAM))$$' ./internal/engine
	$(GO) test -race -cpu 1,2,4 -run '^($(RACE_SCAN))' ./internal/engine

# Lines of Go, non-test and test, per package and in total.
loc:
	@./scripts/loc.sh

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Full shield front-door benchmark run; writes BENCH_shield.json
# (benchmark name -> ns/op).
bench-shield:
	./scripts/bench.sh

# Storage-layer benchmark run: striped pool vs the single-latch baseline,
# point-query and scan throughput at 1/4/16 goroutines, a key-only range
# COUNT next to SELECT * over the same ranges, the mixed read/write
# suite, and the WAL commit path at one committer vs eight;
# writes BENCH_engine.json (benchmark name -> ns/op).
bench-engine:
	BENCH_SUITE=engine ./scripts/bench.sh

# Cluster front-door benchmark: the same point query against a shard
# directly vs through the router (admission, statement plan, replica
# walk, relay) vs through the router and a real loopback socket (the
# shard transport), scatter scans (an aggregate over cold pages, and the
# TopN that merges rows), the merge alone over spans and the way the test
# oracle does it, group writes at R=1 vs R=N. Writes BENCH_cluster.json;
# check mode bounds router/direct, remote/direct and span/oracle (see
# bench.sh).
bench-cluster:
	BENCH_SUITE=cluster ./scripts/bench.sh

# Short measured run of all suites, on the base commit (BENCH_BASE,
# default HEAD, checked out into a temp worktree) and on the working tree
# in the same sitting, as five alternating rounds of one pass per side,
# the two compared by scripts/benchcmp: fails on a key whose median
# regressed >20% with every tree round slower than every base round, or
# on a broken shape invariant judged on medians (point-query scaling,
# the rank index's horizon paying, a key-only range COUNT skipping the
# heap, the detector's clustering sweep staying under half its pairwise
# oracle, a verbatim reply cell costing under a quarter of the same cell
# escaped, eight concurrent WAL committers sharing fsyncs beating one, mixed read/write
# throughput scaling with clients, cluster router tax over direct shard
# access staying within its recorded ratio, the scatter merge over spans
# staying under half of decoding every cell). The fsync-bound engine keys
# are held to their shape only — their ns/op is the disk's, not the
# code's (see bench.sh). The short benchtime keeps it CI-sized; five
# rounds and the no-overlap rule (see bench.sh) keep one process's
# scheduler noise from tripping the gate; the committed BENCH_*.json
# files stay untouched. CI runs this with BENCH_BASE set to the pull
# request's base.
bench-smoke:
	BENCH_SUITE=all BENCH_ARGS="-benchtime=0.25s -count=5" BENCH_CHECK=1 ./scripts/bench.sh

# The socket-level latency ledger (bench/, BENCHMARK.json) in smoke mode:
# every workload, untraced and traced, over real loopback TCP with 1 s
# windows on fixtures a twentieth the size. It measures nothing — it
# proves the benchmark still builds against the program and every path
# of it still runs and verifies. The full run is `go run ./bench`; see
# bench/README.md.
bench-ledger-smoke:
	$(GO) run ./bench -smoke

# Crash-consistency torture, CI-sized, under -race: seeded statement
# streams held to an in-memory model, their logs cut at a bounded sample
# of enumerated offsets (seeds 1 and 2) and every commit killed once by
# the live torn-append and group-flush failpoint sweeps (seed 1); plus
# count-snapshot atomicity and crash points inside coalesced group-commit
# flushes. TORTURE_POINTS caps the sample; 0 means enumerate everything.
torture:
	TORTURE_POINTS=400 $(GO) test -race -count=1 -v -run TestCrash ./internal/torture/

# Shard-kill cluster torture, CI-sized: a scripted workload against a
# partitioned R=2 cluster and a fully replicated (R=N) one, under seeds
# 1-4 each, while shards are killed and revived, RPC
# faults (latency/error/torn-response) are injected, and a rebalance is
# raced against a kill — asserting no acked write is ever lost, resync
# restores full health, and detection sketches reconverge after
# revival. -short trims the op counts; drop it for the full run.
torture-cluster:
	$(GO) test -race -count=1 -v -short -run TestClusterTorture ./internal/torture/

# The full enumeration — every byte of each stream's first commit batch,
# all record header, record end and commit bytes plus strided payload
# bytes of the rest. About a minute; run before storage-format changes.
torture-full:
	TORTURE_POINTS=0 $(GO) test -count=1 -v -timeout 30m ./internal/torture/

# Detection benchmarks: sketch/cluster microbenchmarks plus the shield
# front door with detection off vs on (off must stay zero-overhead).
bench-detect:
	$(GO) test -bench='Detector|Recluster' -benchmem ./internal/detect/
	$(GO) test -bench=ShieldQueryDetect -benchmem .

# Regenerate every table and figure of the paper at full scale.
repro:
	$(GO) run ./cmd/extractbench -exp all -scale 1

# The same at 1/20 scale — seconds instead of minutes. `make check` and CI
# run it, so a table that errors out or panics fails the build.
repro-fast:
	$(GO) run ./cmd/extractbench -exp all -scale 20

# Runs every example end to end (about 9 s). The adaptive one exits
# non-zero unless its selector picks no decay on static traffic and then
# switches to decay once popularity churns.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webtrace
	$(GO) run ./examples/boxoffice
	$(GO) run ./examples/freshness
	$(GO) run ./examples/frontdoor
	$(GO) run ./examples/adaptive

# Four fuzz targets, 45 s in all. FuzzParse (SQL parser), 15 s: no
# panic, every accepted SELECT/INSERT/UPDATE/DELETE survives Render, and
# every string token matches the byte-at-a-time reference reader.
# FuzzSweepColumns (detector), 10 s: after any run of slot changes and
# column hand-outs every pair's estimate is Signature.Jaccard's, bit for
# bit. FuzzStoredTextReply (server over a real engine), 10 s: any TEXT
# cell written, rewritten and read back through /query is encoding/json's
# bytes.
# FuzzWALPatch (write-ahead log), 10 s: a log holding any page's image
# and then any edit of it, logged as a patch, replays to the edit.
# `make check` and CI run it; `go test` alone runs only the seed corpus.
# Minimizing an input is capped at 1 s (the default, 60 s per
# new-coverage input, can spend the whole run minimizing); a failing
# input is still saved under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=15s -fuzzminimizetime=1s ./internal/sqlmini/
	$(GO) test -run '^$$' -fuzz=FuzzSweepColumns -fuzztime=10s -fuzzminimizetime=1s ./internal/detect/
	$(GO) test -run '^$$' -fuzz=FuzzStoredTextReply -fuzztime=10s -fuzzminimizetime=1s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzWALPatch -fuzztime=10s -fuzzminimizetime=1s ./internal/storage/

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlmini/
	$(GO) test -fuzz=FuzzTreeOps -fuzztime=30s ./internal/ostree/
	$(GO) test -run '^$$' -fuzz=FuzzPeerReply -fuzztime=30s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz=FuzzSpanMerge -fuzztime=30s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz=FuzzRebalanceBody -fuzztime=30s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz=FuzzAppendQueryResponse -fuzztime=30s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzParseQueryRequest -fuzztime=30s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzScanQueryResponse -fuzztime=30s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzStoredTextReply -fuzztime=30s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzMigrateRequest -fuzztime=30s ./internal/server/
	$(GO) test -run '^$$' -fuzz=FuzzSketchIO -fuzztime=30s ./internal/detect/
	$(GO) test -run '^$$' -fuzz=FuzzSweepColumns -fuzztime=30s ./internal/detect/
	$(GO) test -run '^$$' -fuzz=FuzzPlanCache -fuzztime=30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz=FuzzWALPatch -fuzztime=30s ./internal/storage/

clean:
	$(GO) clean ./...
	rm -rf bench/out .bench_build
