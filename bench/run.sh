#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with
# the given arguments, for example:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, module cache and
# tool configuration go to .bench_build/ in the checkout, so a run reads
# and writes nothing outside it except the Go toolchain it executes.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
