#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json's command): build the benchmark
# inside the checkout, then run it with the arguments given. Everything
# the build writes (the binary and Go's build cache) stays under
# .bench_build; a second run finds the binary current and starts at once.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
bin="$build/delaybench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	go build -o "$bin" ./bench
fi
exec "$bin" "$@"
