#!/usr/bin/env bash
# Builds and runs the committed-baseline benches and writes their JSON
# summaries at the repo root — the perf-trajectory baselines the repo
# tracks in review as diffs, not surprises:
#
#   BENCH_vectorized.json   closed-loop vectorization bench (EXPERIMENTS.md
#                           E14) — re-run after any hot-path change.
#   BENCH_write_churn.json  durable write path (EXPERIMENTS.md E15) —
#                           query latency quiet vs under temporal-update
#                           churn, plus recovery-time vs log-length with
#                           and without a checkpoint.
#
# The network service's throughput is measured by the repository benchmark
# (perfbench/, workload service_churn), not here.
#
# Usage: scripts/bench_summary.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" -j "$(nproc)" --target bench_vectorized bench_write_churn
"./${BUILD}/bench/bench_vectorized" BENCH_vectorized.json
echo "BENCH_vectorized.json updated"
"./${BUILD}/bench/bench_write_churn" BENCH_write_churn.json
echo "BENCH_write_churn.json updated"
