#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark driver with
# every build output (and the Go build cache) inside the checkout, then
# hands over to it. The driver builds cmd/pnnserve itself.
#
#   bash bench/run.sh --workload query_warm --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Everything the go command writes stays inside the checkout: build
# cache, temporary files, module cache, and its per-user telemetry counters
# (which follow XDG_CONFIG_HOME).
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C bench -o "$out/pnnbench" .
exec "$out/pnnbench" "$@"
