#!/usr/bin/env bash
# Runs the experiment binaries and collects their machine-readable results.
#
#   scripts/run_bench.sh                # full sweeps -> BENCH_*.json
#   scripts/run_bench.sh --quick        # smoke-test sweeps (CI)
#   scripts/run_bench.sh --out DIR      # write the JSONL files into DIR
#
# Each binary prints its experiment tables to stdout and appends one JSON
# row per measured configuration to BENCH_<name>.json (JSONL). The
# experiment numbers are virtual-time measurements and so deterministic
# (bench_logops' E15 tables excepted: they time a real disk and sockets).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build"
OUT="${ROOT}"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) export ABCAST_BENCH_QUICK=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cmake --build "${BUILD}" -j"$(nproc)" --target bench_gossip bench_throughput bench_state bench_scenarios bench_shards bench_logops

mkdir -p "${OUT}"
for bench in gossip throughput state scenarios shards logops; do
  "${BUILD}/bench/bench_${bench}" "--metrics-json=${OUT}/BENCH_${bench}.json"
done

echo
echo "Result rows:"
wc -l "${OUT}"/BENCH_gossip.json "${OUT}"/BENCH_throughput.json "${OUT}"/BENCH_state.json "${OUT}"/BENCH_scenarios.json "${OUT}"/BENCH_shards.json "${OUT}"/BENCH_logops.json
