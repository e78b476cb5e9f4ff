#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload warm-json --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the on-disk stores of the mixed-fleet
# workload live under .bench_build/; traced runs write their span files to
# bench/out/. Nothing is written outside the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

# The bench module resolves mpsched from the parent directory, so the build
# fails (and nothing runs) outside a full checkout. XDG_CONFIG_HOME keeps the
# toolchain's own state (telemetry counters, go env file) in the checkout.
XDG_CONFIG_HOME="$build/config" go -C bench build -o "$build/mpsched-bench" .
exec "$build/mpsched-bench" "$@"
