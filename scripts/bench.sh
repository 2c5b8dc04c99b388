#!/bin/sh
# Runs the repo's benchmark suites and writes BENCH_<suite>.json, a flat
# object mapping benchmark name to ns/op, for tracking hot paths across
# commits.
#
# Suites:
#   shield   front-door batch/price-cache path, and the delay layer's
#            per-tuple quote+observe cost on a scan -> BENCH_shield.json
#   engine   buffer pool + parallel scan executor  -> BENCH_engine.json
#   cluster  router tax over direct shard access   -> BENCH_cluster.json
#   all      all of the above
#
#   BENCH_SUITE  suite to run (default: shield)
#   BENCH_ARGS   go test bench flags (default: -benchtime=2s -count=3;
#                with -count>1 each key records the MINIMUM ns/op across
#                repetitions — min-of-N is far less noisy than any single
#                run on a shared host, so both the committed baselines
#                and check-mode runs use it)
#   BENCH_OUT    output path override (single suite only)
#   BENCH_CHECK  1 = do not overwrite the committed BENCH_*.json; instead
#                compare the fresh run against it with scripts/benchcmp
#                and exit nonzero on a >BENCH_TOL% per-key regression or
#                a broken shape invariant (point queries must scale to
#                g=16, scan with the price cache on must beat cache off).
#   BENCH_TOL    allowed per-key regression percent in check mode
#                (default: 20)
#   BENCH_NORM   1 (default) = benchcmp -norm: calibrate per-key checks
#                by the median new/baseline ratio (floored at 1), so a
#                CI runner uniformly slower than the host that recorded
#                the baseline does not trip every key; the gate then
#                measures relative per-key regressions, and a faster
#                runner falls back to the absolute comparison. Uniform
#                whole-suite slowdowns are covered by the within-run
#                shape invariants, which need no calibration. 0 =
#                absolute ns/op comparison (use when baseline and check
#                run on the same pinned machine).
set -eu

cd "$(dirname "$0")/.."
suite="${BENCH_SUITE:-shield}"
args="${BENCH_ARGS:--benchtime=2s -count=3}"
check="${BENCH_CHECK:-0}"
tol="${BENCH_TOL:-20}"
normflag=""
[ "${BENCH_NORM:-1}" = 1 ] && normflag="-norm"

run_suite() {
	# $1 = bench regexp, $2 = output file, $3 = space-separated benchcmp
	# invariant specs (may be empty), remaining = packages
	pattern="$1"; out="$2"; invariants="$3"; shift 3
	dest="$out"
	if [ "$check" = 1 ]; then
		dest="$(mktemp)"
		trap 'rm -f "$dest"' EXIT
	fi
	# shellcheck disable=SC2086  # $args is intentionally word-split
	go test -run '^$' -bench "$pattern" $args "$@" \
	  | tee /dev/stderr \
	  | awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)        # strip the GOMAXPROCS suffix
	if (!(name in vals)) order[n++] = name
	if (!(name in vals) || $3 + 0 < vals[name] + 0)
		vals[name] = $3          # with -count>1 keep the minimum
}
END {
	printf "{\n"
	for (i = 0; i < n; i++)
		printf "  \"%s\": %s%s\n", order[i], vals[order[i]], (i < n - 1 ? "," : "")
	printf "}\n"
}' > "$dest"
	if [ "$check" = 1 ]; then
		set -- -tol "$tol"
		[ -n "$normflag" ] && set -- "$@" "$normflag"
		for iv in $invariants; do
			set -- "$@" -le "$iv"
		done
		echo "checking $dest against committed $out (tol ${tol}%)"
		go run ./scripts/benchcmp "$@" "$out" "$dest"
		rm -f "$dest"
		trap - EXIT
	else
		echo "wrote $out"
	fi
}

# Shape invariants enforced in check mode, on the fresh run itself so
# they hold on any machine: scanning 1000 tuples with the price cache on
# must not lose to cache off; a point query at 4 or 16 goroutines must
# not be slower than single-threaded (1.05 allows scheduler noise on
# small hosts); and grouped WAL commit at 8 clients must not lose to
# per-commit fsyncs. (The mixed read/write path is gated by its absolute
# BenchmarkEngineMixed/* baselines.)
shield_inv='BenchmarkShieldQueryParallelScan/tuples=1000/cache=on,BenchmarkShieldQueryParallelScan/tuples=1000/cache=off,1.0'
engine_inv='BenchmarkEnginePointQuery/g=16,BenchmarkEnginePointQuery/g=1,1.05
BenchmarkEnginePointQuery/g=4,BenchmarkEnginePointQuery/g=1,1.05
BenchmarkWALCommit/group=on/g=8,BenchmarkWALCommit/group=off/g=8,1.0'
# The cluster front door's tax on a point query — body read, JSON
# decode, statement plan, replica-group walk, relay copy — measured 1.61x
# a direct shard hit when the router became one path (10.56us vs
# 6.54us); it may grow at most the suite's 20% past that. The same
# query through the router and one real loopback socket (via=remote:
# the shard behind an http.Server, reached through NewHTTPNode's shard
# transport) measured 7.3x direct (49.1us vs 6.7us) — nearly all of it
# the kernel's round trip, which direct, an in-process handler call,
# does not pay. net/http's client on the same hop measured 12.4x in the
# same sitting; the 9.5x bound sits between the two, with room for the
# wake-up noise of a busy host. Partitioning
# must buy real horizontal scale: the same I/O-bound scan over 4 shards
# must finish in at most half the single-shard time, and a single-row
# write to an R=1 group (one owner applies it) must not lose to the R=N
# group write (all 4 apply it). Replica groups must stay cheap on the
# healthy read path: a point query at R=2 may cost at most 30% over R=1
# (the group walk stops at the first readable member).
cluster_inv='BenchmarkClusterPointQuery/via=router,BenchmarkClusterPointQuery/via=direct,1.94
BenchmarkClusterPointQuery/via=remote,BenchmarkClusterPointQuery/via=direct,9.5
BenchmarkClusterScan/partitions=4,BenchmarkClusterScan/partitions=1,0.5
BenchmarkClusterWrite/r=1,BenchmarkClusterWrite/r=N,1.0
BenchmarkClusterReplicatedPoint/r=2,BenchmarkClusterReplicatedPoint/r=1,1.3'

case "$suite" in
shield)
	run_suite 'ShieldQuery|AdaptiveObserveBatch|ScanQuoteObserve' \
		"${BENCH_OUT:-BENCH_shield.json}" "$shield_inv" . ./internal/delay
	;;
engine)
	run_suite 'PoolFetch|EnginePointQuery|EngineScan|EngineMixed|WALCommit' \
		"${BENCH_OUT:-BENCH_engine.json}" "$engine_inv" \
		./internal/storage ./internal/engine
	;;
cluster)
	run_suite 'ClusterPointQuery|ClusterScan|ClusterWrite|ClusterReplicatedPoint' \
		"${BENCH_OUT:-BENCH_cluster.json}" "$cluster_inv" ./internal/cluster
	;;
all)
	[ -z "${BENCH_OUT:-}" ] || { echo "BENCH_OUT needs a single suite" >&2; exit 1; }
	run_suite 'ShieldQuery|AdaptiveObserveBatch|ScanQuoteObserve' BENCH_shield.json "$shield_inv" . ./internal/delay
	run_suite 'PoolFetch|EnginePointQuery|EngineScan|EngineMixed|WALCommit' \
		BENCH_engine.json "$engine_inv" \
		./internal/storage ./internal/engine
	run_suite 'ClusterPointQuery|ClusterScan|ClusterWrite|ClusterReplicatedPoint' BENCH_cluster.json "$cluster_inv" \
		./internal/cluster
	;;
*)
	echo "bench.sh: unknown BENCH_SUITE '$suite' (shield|engine|cluster|all)" >&2
	exit 1
	;;
esac
