#!/bin/sh
# Runs the repo's benchmark suites and writes BENCH_<suite>.json, a flat
# object mapping benchmark name to ns/op, for tracking hot paths across
# commits.
#
# Suites:
#   shield   front-door batch quote/observe path, the delay layer's
#            per-tuple quote+observe cost on a scan, the HTTP handler
#            around the shield call, one reply cell copied verbatim vs
#            escaped, and the detector's clustering sweep next to its
#            pairwise oracle  -> BENCH_shield.json
#   engine   buffer pool + parallel scan executor  -> BENCH_engine.json
#   cluster  router tax over direct shard access   -> BENCH_cluster.json
#   all      all of the above
#
#   BENCH_SUITE  suite to run (default: shield)
#   BENCH_ARGS   go test bench flags (default: -benchtime=2s -count=3;
#                with -count>1 each key of a written BENCH_*.json records
#                the MINIMUM ns/op across repetitions — min-of-N is far
#                less noisy than any single run on a shared host)
#   BENCH_OUT    output path override (single suite only)
#   BENCH_CHECK  1 = write no BENCH_*.json; instead run each suite on
#                BENCH_BASE (checked out with git worktree into a temp
#                dir) and on the working tree in this sitting, as R
#                rounds where R is BENCH_ARGS' -count=R: each round is one
#                -count=1 pass on each side, the side that goes first
#                alternating by round, so a drift of the host between
#                sittings lands on both sides alike. Each side keeps
#                every round's ns/op per key, and the two are compared
#                with scripts/benchcmp: a key is red only when the
#                tree's median is worse than the base's by more than
#                BENCH_TOL% AND every tree round is slower than every
#                base round (a single go test process moves a key by
#                20-45% on a shared host; only rounds that do not
#                overlap say the code moved it). Once every suite has
#                run, exit nonzero on a red key or on a broken shape
#                invariant, judged on the tree's per-key medians: point
#                queries must scale to g=16, a capped scan quote must
#                cost under half an uncapped one, a key-only range COUNT
#                under 0.3 of the same ranges' rows, the detector's sweep
#                under half its pairwise oracle's time, a verbatim reply
#                cell under a quarter of the same cell escaped, the
#                scatter merge over spans under half its decode-everything
#                oracle's.
#                Both runs share the host and the sitting, so no
#                calibration between them is needed; the committed
#                BENCH_*.json files stay the record that non-check mode
#                writes. Keys whose ns/op is an fsync are held to their
#                invariants only (see engine_shape).
#   BENCH_BASE   the commit check mode compares against (default: HEAD)
#   BENCH_TOL    allowed per-key regression percent in check mode
#                (default: 20)
set -eu

cd "$(dirname "$0")/.."
suite="${BENCH_SUITE:-shield}"
args="${BENCH_ARGS:--benchtime=2s -count=3}"
check="${BENCH_CHECK:-0}"
tol="${BENCH_TOL:-20}"
base="${BENCH_BASE:-HEAD}"
failed=0

if [ "$check" = 1 ]; then
	tmp="$(mktemp -d)"
	basedir="$tmp/base"
	trap 'git worktree remove --force "$basedir" 2>/dev/null || true; git worktree prune; rm -rf "$tmp"' EXIT
	git worktree add --quiet --detach "$basedir" "$base"
fi

# bench_lines runs the benchmarks matching $2 in the remaining packages
# of the current directory's tree with the go test flags $1, and prints
# the output on stdout and stderr alike. tee appends: with stderr sent to
# a file, a truncating open per call would keep only the last suite.
bench_lines() {
	flags="$1"; pattern="$2"; shift 2
	# shellcheck disable=SC2086  # $flags is intentionally word-split
	go test -run '^$' -bench "$pattern" $flags "$@" | tee -a /dev/stderr
}

# to_json reads benchmark lines and prints a flat JSON object of
# benchmark name -> ns/op. A key seen more than once keeps the minimum,
# or with the argument "all" every value, as a list in run order.
to_json() {
	awk -v all="${1:-}" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)        # strip the GOMAXPROCS suffix
	if (!(name in vals)) { order[n++] = name; list[name] = $3 }
	else list[name] = list[name] ", " $3
	if (!(name in vals) || $3 + 0 < vals[name] + 0)
		vals[name] = $3          # with -count>1 keep the minimum
}
END {
	printf "{\n"
	for (i = 0; i < n; i++) {
		v = (all == "all") ? "[" list[order[i]] "]" : vals[order[i]]
		printf "  \"%s\": %s%s\n", order[i], v, (i < n - 1 ? "," : "")
	}
	printf "}\n"
}'
}

bench_json() {
	pattern="$1"; shift
	bench_lines "$args" "$pattern" "$@" | to_json
}

run_suite() {
	# $1 = bench regexp, $2 = output file, $3 = space-separated benchcmp
	# invariant specs (may be empty), $4 = regexp of the keys gated by
	# those invariants only (may be empty), remaining = packages
	pattern="$1"; out="$2"; invariants="$3"; shape="$4"; shift 4
	if [ "$check" != 1 ]; then
		bench_json "$pattern" "$@" > "$out"
		echo "wrote $out"
		return
	fi
	was="$tmp/base-$(basename "$out")"; now="$tmp/new-$(basename "$out")"
	# -count=R becomes R rounds of -count=1 per side.
	# shellcheck disable=SC2086  # $args is intentionally word-split
	rounds="$(printf '%s\n' $args | sed -n 's/^-count=//p' | tail -n 1)"
	# shellcheck disable=SC2086
	once="$(printf '%s\n' $args | grep -v '^-count=' | tr '\n' ' ') -count=1"
	: > "$was.lines"; : > "$now.lines"
	r=0
	while [ "$r" -lt "${rounds:-1}" ]; do
		r=$((r + 1))
		sides="base tree"
		if [ $((r % 2)) = 0 ]; then
			sides="tree base"
		fi
		for side in $sides; do
			echo "running $out's suite on the $side, round $r of ${rounds:-1}"
			if [ "$side" = base ]; then
				(cd "$basedir" && bench_lines "$once" "$pattern" "$@") >> "$was.lines"
			else
				bench_lines "$once" "$pattern" "$@" >> "$now.lines"
			fi
		done
	done
	to_json all < "$was.lines" > "$was"
	to_json all < "$now.lines" > "$now"
	set -- -tol "$tol"
	[ -n "$shape" ] && set -- "$@" -shape "$shape"
	for iv in $invariants; do
		set -- "$@" -le "$iv"
	done
	echo "checking the working tree against $base (tol ${tol}%)"
	# A failing suite does not stop the others; the exit status does.
	go run ./scripts/benchcmp "$@" "$was" "$now" || failed=1
}

# Shape invariants enforced in check mode, on the fresh run itself so
# they hold on any machine: quoting and observing a key range under a
# 10 s cap, where most tuples rank past the cap and so past the rank
# index's horizon, must cost at most half of the same over the same
# tracker with no cap, where every tuple keeps its position and moves
# (history=random against history=uncapped; re-derived in one sitting
# when the horizon came in: random 34.6 ns, scans 31.6 ns, uncapped
# 323.9 ns per tuple, 0.11 — a horizon that stopped paying would put the
# capped histories back near the uncapped one, history=random's
# scattered ranks above it). The older bound, scans no slower than
# random, is gone: with both mostly past the horizon they read 0.91 in
# that sitting and 0.9-1.1 in another, no margin to judge by;
# a point query at 4 or 16 goroutines may take at most 1.2 of the
# single-threaded time, a guard against a read path that collapses under
# concurrency. On a 2-vCPU box the parallel run has little to gain and
# the ratio tracks the host, not the code (0.25 s passes, one process
# each, unchanged tree): idle, g=4/g=1 read 0.73-1.00 and g=16/g=1
# 0.77-0.93 over ten processes; with one core taken by another process,
# 0.89-1.10 and 0.97-1.09 over six (medians 1.04 and 1.06), and the
# engine suite's check runs saw per-round ratios of 0.98-1.13 on base
# and tree alike, which broke the old 1.05 bound in 2 of 4 runs. A
# longer pass does not help: the busy core is the sitting's, not the
# pass's. Every cached point read taking the table lock exclusively
# still read 0.85-0.95 and 0.77-0.97 idle, so no bound this box can
# hold separates serialized reads from shared ones; a
# key-only COUNT(*) over 1,000 keys, which the primary index answers
# without a page, must take at most 0.3 of SELECT * over the same
# ranges, which reads every row's page from a heap 28 times the pool
# (BenchmarkEngineRange; derived in one sitting, medians of five rounds:
# count 37.1 us, rows 281.8 us, 0.13; a COUNT back on the heap reads every page the rows do
# and would sit near the parent commit's
# 0.46 (124.2 us over 268.3 us in the same sitting)); and 8 clients
# committing through the WAL's group queue must each take no longer per
# commit than one client alone, whose every commit is its own write and
# fsync (BenchmarkWALCommit/g=8 over /g=1: 44,882 ns over 111,163 ns in
# BENCH_engine.json, where the per-commit-fsync arm at 8 clients read
# 109,868 ns, the same fsync-bound time as one client).
# BenchmarkEngineMixed/* and BenchmarkWALCommit/* run against a synced
# log, so their ns/op is the fsync of the disk the run is on: on this
# shared box it moves by 2x between sittings with no commit in between
# (PRs 12, 14, 16, 17 and 21 all found these keys red on their own
# parent), and even a base run in the same sitting cannot judge a
# write-path change by them. They are gated by shape only (engine_shape
# below: no comparison with the base run; BENCH_engine.json keeps them
# for the record): at every write
# fraction 16 clients must finish an operation in at most 0.6 of the
# single client's time — writers on different pages run in parallel and
# share fsyncs, the point of the write path; 0.15-0.23 in the recorded
# baseline and 0.21-0.39 over three smoke runs in a slow disk state,
# while a path that serialized its writers would sit at 1. The HTTP/JSON wrapper may cost at
# most 1.92x the shield call it wraps: BenchmarkHandleQuery/point (mux,
# recovery, MaxBytesReader, body read, decode, encode, header map around
# the same fixture and statements) measured 1,715ns over
# BenchmarkShieldQuery's 1,071ns = 1.60x when the /query codec stopped
# going through encoding/json (3.7x before, same sitting), plus the
# suite's 20%. The detector's clustering sweep, on 256 candidates of
# scan traffic whose signatures really do agree here and there, each
# having read one more range since the last sweep, may take at most half
# of what comparing the same candidates pair by pair takes in the same
# process (BenchmarkReclusterOracle, the test reference): 0.13-0.15 when
# the sweep started counting matches by groups, about 0.03 since it
# recounts only the slots that changed, 1 and above if a
# candidates-squared loop ever comes back. The oracle is test code kept
# for that comparison: its own ns/op is held to nothing recorded
# (shield_shape). A reply copies a TEXT cell whose record claims it
# verbatim between its quotes without reading it: one 180-byte plain cell
# so copied (BenchmarkReplyRow/verbatim) may take at most a quarter of
# the same cell read byte by byte for escapes (/escaped): 15-18 ns over
# 249-298 ns, about 0.06, when the verbatim bit came in; near 1 if a
# claimed cell were scanned again.
shield_inv='BenchmarkScanQuoteObserve/history=random,BenchmarkScanQuoteObserve/history=uncapped,0.5
BenchmarkHandleQuery/point,BenchmarkShieldQuery,1.92
BenchmarkRecluster/cands=256/history=scans,BenchmarkReclusterOracle/cands=256/history=scans,0.5
BenchmarkReplyRow/verbatim,BenchmarkReplyRow/escaped,0.25'
engine_inv='BenchmarkEnginePointQuery/g=16,BenchmarkEnginePointQuery/g=1,1.2
BenchmarkEnginePointQuery/g=4,BenchmarkEnginePointQuery/g=1,1.2
BenchmarkEngineRange/count,BenchmarkEngineRange/rows,0.3
BenchmarkWALCommit/g=8,BenchmarkWALCommit/g=1,1.0
BenchmarkEngineMixed/w10/g=16,BenchmarkEngineMixed/w10/g=1,0.6
BenchmarkEngineMixed/w50/g=16,BenchmarkEngineMixed/w50/g=1,0.6
BenchmarkEngineMixed/w90/g=16,BenchmarkEngineMixed/w90/g=1,0.6'
shield_shape='^BenchmarkReclusterOracle/'
engine_shape='^Benchmark(EngineMixed|WALCommit)/'
# The cluster front door's tax on a point query — body read, request
# decode, statement plan, replica-group walk, relay copy — is bounded
# against a direct shard hit, and the direct hit is the /query handler
# itself: when its hand-written codec took ~2us out of it (6.7us ->
# 5.5us) the router's own work and the kernel's round trip stayed what
# they were, so both ratios rose with nothing getting slower. Re-derived
# in one sitting on that commit: via=router 9.92us over via=direct
# 5.48us = 1.81x (the parent in the same sitting: 13.1us over 8.2us =
# 1.60x, slower on both lines); it may grow at most the suite's 20% past
# that. The same query through the router and one
# real loopback socket (via=remote: the shard behind an http.Server,
# reached through NewHTTPNode's shard transport) measured 65.0us =
# 11.9x direct — 65.2 to 65.4us on both commits in that sitting, against
# 49.1us when the bound was first set: the box was in its slow
# kernel-path state, and nearly all of this number is the kernel's round
# trip, which direct, an in-process handler call, does not pay.
# net/http's client on the same hop costs 1.7x the shard transport
# (84.5us vs 49.1us, PR 14), about 20x direct here; the 14.2x bound
# (measured + 20%) sits between the two, with room for the
# wake-up noise of a busy host. Partitioning
# must buy real horizontal scale: the same I/O-bound scan over 4 shards
# must finish in at most half the single-shard time, and a single-row
# write to an R=1 group (one owner applies it) must not lose to the R=N
# group write (all 4 apply it). Replica groups must stay cheap on the
# healthy read path: a point query at R=2 may cost at most 30% over R=1
# (the group walk stops at the first readable member). The scatter merge
# reads its legs as row spans and copies the winners: four 20-row legs
# into a 20-row reply (BenchmarkMergeLegs/span) may take at most half of
# what decoding every cell into a string, merging strings and encoding
# them again takes in the same process (/oracle, the test reference; it
# encodes with encoding/json where the merge it was had the hand-written
# encoder, which on these legs is lost in the decode — that merge, timed
# on its own commit in the same sitting, took what the oracle takes):
# 0.13-0.16 when the merge moved to spans, 1 if a decode-everything merge
# ever comes back. The oracle is test code kept
# for that comparison: its own ns/op is held to nothing recorded
# (cluster_shape). The benchmark itself fails if span's allocations grow
# with the rows a leg carries.
cluster_inv='BenchmarkClusterPointQuery/via=router,BenchmarkClusterPointQuery/via=direct,2.17
BenchmarkClusterPointQuery/via=remote,BenchmarkClusterPointQuery/via=direct,14.2
BenchmarkClusterScan/partitions=4,BenchmarkClusterScan/partitions=1,0.5
BenchmarkClusterWrite/r=1,BenchmarkClusterWrite/r=N,1.0
BenchmarkClusterReplicatedPoint/r=2,BenchmarkClusterReplicatedPoint/r=1,1.3
BenchmarkMergeLegs/span,BenchmarkMergeLegs/oracle,0.5'
cluster_shape='^BenchmarkMergeLegs/oracle'
cluster_pat='ClusterPointQuery|ClusterScan|ClusterTopN|MergeLegs|ClusterWrite|ClusterReplicatedPoint'

shield_pat='ShieldQuery|AdaptiveObserveBatch|ScanQuoteObserve|HandleQuery|ReplyRow|Recluster'
engine_pat='PoolFetch|EnginePointQuery|EngineScan|EngineRange|EngineMixed|WALCommit'

case "$suite" in
shield)
	run_suite "$shield_pat" \
		"${BENCH_OUT:-BENCH_shield.json}" "$shield_inv" "$shield_shape" . ./internal/delay ./internal/server ./internal/detect
	;;
engine)
	run_suite "$engine_pat" \
		"${BENCH_OUT:-BENCH_engine.json}" "$engine_inv" "$engine_shape" \
		./internal/storage ./internal/engine
	;;
cluster)
	run_suite "$cluster_pat" \
		"${BENCH_OUT:-BENCH_cluster.json}" "$cluster_inv" "$cluster_shape" ./internal/cluster
	;;
all)
	[ -z "${BENCH_OUT:-}" ] || { echo "BENCH_OUT needs a single suite" >&2; exit 1; }
	run_suite "$shield_pat" BENCH_shield.json "$shield_inv" "$shield_shape" . ./internal/delay ./internal/server ./internal/detect
	run_suite "$engine_pat" \
		BENCH_engine.json "$engine_inv" "$engine_shape" \
		./internal/storage ./internal/engine
	run_suite "$cluster_pat" BENCH_cluster.json "$cluster_inv" "$cluster_shape" \
		./internal/cluster
	;;
*)
	echo "bench.sh: unknown BENCH_SUITE '$suite' (shield|engine|cluster|all)" >&2
	exit 1
	;;
esac
exit "$failed"
