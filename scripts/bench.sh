#!/usr/bin/env sh
# bench.sh — measure the core benchmarks and write machine-readable
# results (ns/op, allocs/op, jobs/s) to BENCH_enumeration.json, seeding
# the repo's perf trajectory. Usage:
#
#   scripts/bench.sh [-smoke] [output.json]
#
# -smoke runs the minimal subset (3DFT, the fft:8 and random96 censuses,
# the ingest kernels, the router's decode and the warm /v1/batch
# handler) so CI can prove the generation path still works without
# paying for real measurement; do not commit a smoke-mode JSON as the
# repo's benchmark record.
#
# The measurements run in-process via testing.Benchmark (no output
# parsing); see cmd/experiments/benchjson.go for the benchmark set.
set -eu
cd "$(dirname "$0")/.."
smoke=""
if [ "${1:-}" = "-smoke" ]; then
  smoke="-bench-smoke"
  shift
fi
out="${1:-BENCH_enumeration.json}"
exec go run ./cmd/experiments -bench-json "$out" $smoke
