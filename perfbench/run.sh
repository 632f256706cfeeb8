#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run it
# from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload raft-sym-serial --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary live under .bench_build,
# so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
PERFBENCH_SOURCE=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_SOURCE
exec "$build/perfbench-bin" "$@"
