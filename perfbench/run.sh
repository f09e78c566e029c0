#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and span dumps stay under
# .bench_build/ so the benchmark writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTMPDIR="$out"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
