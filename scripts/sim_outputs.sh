#!/usr/bin/env bash
# Writes every deterministic simulator output into one directory, so two
# builds can be compared byte for byte:
#
#   scripts/sim_outputs.sh OUTDIR
#   diff -r OUTDIR_A OUTDIR_B
#
# Builds the bench binaries in build/ (configuring it when needed), then
# writes into OUTDIR:
#   BENCH_{gossip,throughput,state,scenarios,shards}.json
#       the JSONL rows of a full scripts/run_bench.sh;
#   bench_<name>.txt
#       the tables bench_consensus, bench_ct_baseline, bench_delta,
#       bench_faults, bench_logsize, bench_multicast, bench_quorum,
#       bench_recovery and bench_statetransfer print;
#   bench_logops_e1.txt
#       bench_logops' E1 table.
# Wall-clock parts are left out: BENCH_logops.json (E15a/E15b, also the
# rest of bench_logops' stdout) and bench_recovery's "recovery wall us"
# column. Everything else is virtual-time and must not vary between runs.
# The script only drives binaries, so a copy of it also runs in an older
# checkout.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build"
OUT="$1"
# Quick mode shrinks the sweeps; the comparison is over the full ones.
unset ABCAST_BENCH_QUICK

JSONL=(gossip throughput state scenarios shards)
TABLES=(consensus ct_baseline delta faults logsize multicast quorum recovery
        statetransfer)

targets=(bench_logops)
for b in "${JSONL[@]}" "${TABLES[@]}"; do targets+=("bench_${b}"); done
if [[ ! -f "${BUILD}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD}" -S "${ROOT}"
fi
cmake --build "${BUILD}" -j"$(nproc)" --target "${targets[@]}"

mkdir -p "${OUT}"
ERR="$(mktemp)"
LOGOPS="$(mktemp)"
trap 'rm -f "${ERR}" "${LOGOPS}"' EXIT

# run FILE CMD... : CMD's stdout goes to FILE; its stderr is shown only
# when it fails.
run() {
  local file="$1"
  shift
  if ! "$@" >"${file}" 2>"${ERR}"; then
    cat "${ERR}" >&2
    echo "$0: $1 failed" >&2
    exit 1
  fi
}

# --benchmark_filter=^$ skips an older checkout's google-benchmark loops.
for b in "${JSONL[@]}"; do
  # stdout repeats the JSONL rows; the file is the copy kept.
  run /dev/null "${BUILD}/bench/bench_${b}" \
    "--metrics-json=${OUT}/BENCH_${b}.json" "--benchmark_filter=^\$"
done

for b in "${TABLES[@]}"; do
  run "${OUT}/bench_${b}.txt" "${BUILD}/bench/bench_${b}" \
    "--benchmark_filter=^\$"
done

# Drop the last cell of every row of a table whose header ends in
# "recovery wall us".
awk '
  /^\|/ {
    if (!in_table) { in_table = 1; strip = ($0 ~ /recovery wall us \|$/) }
    if (strip) sub(/\|[^|]*\|$/, "|")
    print
    next
  }
  { in_table = 0; print }
' "${OUT}/bench_recovery.txt" >"${OUT}/bench_recovery.txt.tmp"
mv "${OUT}/bench_recovery.txt.tmp" "${OUT}/bench_recovery.txt"

run "${LOGOPS}" "${BUILD}/bench/bench_logops" "--benchmark_filter=^\$"
awk '/^=== /{ on = /^=== E1:/ } on' "${LOGOPS}" >"${OUT}/bench_logops_e1.txt"

echo "simulator outputs written to ${OUT}:"
ls "${OUT}"
