#!/usr/bin/env bash
# Guards bench_throughput, bench_shards and bench_logops against perf
# regressions in CI.
#
#   scripts/check_bench_regression.sh [RESULTS_DIR]
#
# Reads the freshly produced quick-mode results in RESULTS_DIR (default
# ./bench-results):
#
#   * BENCH_throughput.json: the open-loop batch-1 row must not fall below
#     ABCAST_BENCH_MIN_RATIO (default 0.5) of the committed batch-1
#     throughput at the repo root — the slack absorbs the quick sweep's
#     smaller totals, not a protocol regression;
#   * BENCH_shards.json: sharding must still parallelize ordering. In the
#     shards_scaleout rows at 16 clients, 4 shards must deliver at least 2x
#     the throughput of 1 shard (the quick run reads ~2.7x, the committed
#     full run ~3.2x, both on E14's 700-byte network). Shard count is the
#     one axis of ordering parallelism; this check replaces one that
#     guarded the pipelining window, which has been deleted.
#
# Virtual-time measurements are deterministic per seed, so a breach is a
# real behavior change, not machine noise.
#
# The committed BENCH_scenarios.json must hold no row with "ok":false: a
# red generated scenario is a safety or liveness failure, and a baseline
# must never carry one (bench_scenarios itself exits 1 on any). Likewise
# every E5b row of the committed BENCH_state.json must have converged with
# its largest state datagram (max_chunk_bytes) within that row's simulated
# network limit (max_datagram_bytes); bench_state exits 1 on any seed that
# does not.
#
# The E15 batched-I/O rows in BENCH_logops.json are wall-clock, so their
# guards are self-relative within the same run (robust to slow CI hosts):
#
#   * logops_throughput, at 4 records per pass: seglog-deferred must beat
#     seglog-eachput by ABCAST_LOGOPS_MIN_RATIO (default 1.2) and issue at
#     most ops/4 fdatasyncs — the per-pass flush must actually share one
#     fdatasync across the pass;
#   * udp_syscalls: the batched row's send syscalls/datagram must stay below
#     ABCAST_UDP_MAX_SYSCALL_RATIO (default 0.8; unbatched is 1.0 by
#     construction) and the run must have converged.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RESULTS="${1:-${ROOT}/bench-results}"
BASELINE="${ROOT}/BENCH_throughput.json"
SCENARIOS="${ROOT}/BENCH_scenarios.json"
STATE="${ROOT}/BENCH_state.json"
CURRENT="${RESULTS}/BENCH_throughput.json"
SHARDS="${RESULTS}/BENCH_shards.json"
LOGOPS="${RESULTS}/BENCH_logops.json"
RATIO="${ABCAST_BENCH_MIN_RATIO:-0.5}"
LOGOPS_RATIO="${ABCAST_LOGOPS_MIN_RATIO:-1.2}"
UDP_RATIO="${ABCAST_UDP_MAX_SYSCALL_RATIO:-0.8}"

if [[ ! -f "${BASELINE}" ]]; then
  echo "missing committed baseline: ${BASELINE}" >&2
  exit 2
fi
for committed in "${SCENARIOS}" "${STATE}"; do
  if [[ ! -f "${committed}" ]]; then
    echo "missing committed baseline: ${committed}" >&2
    exit 2
  fi
done
for results in "${CURRENT}" "${SHARDS}" "${LOGOPS}"; do
  if [[ ! -f "${results}" ]]; then
    echo "missing bench results: ${results} (run scripts/run_bench.sh first)" >&2
    exit 2
  fi
done

python3 - "${SCENARIOS}" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    rows = [json.loads(line) for line in f if line.strip()]
red = [r for r in rows if r.get("experiment") == "scenario_sweep"
       and not r.get("ok", False)]
for r in red:
    print(f"red scenario row: {r.get('scenario')}", file=sys.stderr)
if red:
    sys.exit(f"REGRESSION: {sys.argv[1]} holds {len(red)} row(s) with ok=false")
print(f"committed scenario sweep: {len(rows)} rows, all ok")
PYEOF

python3 - "${STATE}" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    rows = [json.loads(line) for line in f if line.strip()]
e5b = [r for r in rows if r.get("experiment") == "E5b"]
if not e5b:
    sys.exit(f"{sys.argv[1]}: no E5b rows")
bad = []
for r in e5b:
    limit = r.get("max_datagram_bytes")
    if (not r.get("converged", False) or limit is None
            or r.get("max_chunk_bytes", 0) > limit):
        bad.append(r)
        print(
            f"bad E5b row: {r.get('scenario')}, {r.get('history_kib')} KiB, "
            f"limit {limit} B: converged={r.get('converged')}, "
            f"max chunk {r.get('max_chunk_bytes')} B",
            file=sys.stderr,
        )
if bad:
    sys.exit(
        f"REGRESSION: {sys.argv[1]} holds {len(bad)} E5b row(s) that did not "
        f"converge or overran their datagram limit"
    )
print(f"committed E5b rows: {len(e5b)}, all converged within their limit")
PYEOF

python3 - "${BASELINE}" "${CURRENT}" "${RATIO}" <<'PYEOF'
import json
import sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
ratio = float(sys.argv[3])


def rows(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def throughput(path, experiment, **match):
    for r in rows(path):
        if r.get("experiment") == experiment and all(
            r.get(k) == v for k, v in match.items()
        ):
            return r["throughput_per_sec"]
    return None


base = throughput(baseline_path, "throughput_batch_sweep", batch=1)
cur = throughput(current_path, "throughput_batch_sweep", batch=1)
if base is None:
    sys.exit(f"{baseline_path}: no throughput_batch_sweep batch=1 row")
if cur is None:
    sys.exit(f"{current_path}: no throughput_batch_sweep batch=1 row")
floor = base * ratio
print(
    f"batch-1 open-loop: current {cur:.1f} msgs/s, committed {base:.1f}, "
    f"floor {floor:.1f} (ratio {ratio})"
)
if cur < floor:
    sys.exit(
        f"REGRESSION: batch-1 throughput {cur:.1f} msgs/s fell below "
        f"{ratio} x committed baseline ({base:.1f} msgs/s)"
    )
PYEOF

python3 - "${SHARDS}" <<'PYEOF'
import json
import sys

shards_path = sys.argv[1]
min_speedup = 2.0

with open(shards_path) as f:
    rows = [json.loads(line) for line in f if line.strip()]


def scaleout(shards):
    for r in rows:
        if (r.get("experiment") == "shards_scaleout"
                and r.get("clients") == 16 and r.get("shards") == shards):
            return r["throughput_per_sec"]
    sys.exit(f"{shards_path}: no shards_scaleout row at 16 clients, "
             f"{shards} shard(s)")


one, four = scaleout(1), scaleout(4)
speedup = four / max(one, 1e-9)
print(
    f"sharded scale-out, 16 clients: 1 shard {one:.1f} msgs/s, 4 shards "
    f"{four:.1f} msgs/s -> {speedup:.2f}x (floor {min_speedup}x)"
)
if speedup < min_speedup:
    sys.exit(
        f"REGRESSION: 4 shards deliver {speedup:.2f}x the throughput of "
        f"1 shard, below {min_speedup}x — sharding stopped parallelizing "
        f"ordering"
    )
print("bench regression guard: OK")
PYEOF

python3 - "${LOGOPS}" "${LOGOPS_RATIO}" "${UDP_RATIO}" <<'PYEOF'
import json
import sys

logops_path = sys.argv[1]
logops_ratio = float(sys.argv[2])
udp_ratio = float(sys.argv[3])

with open(logops_path) as f:
    rows = [json.loads(line) for line in f if line.strip()]


def one(experiment, **match):
    for r in rows:
        if r.get("experiment") == experiment and all(
            r.get(k) == v for k, v in match.items()
        ):
            return r
    sys.exit(f"{logops_path}: no {experiment} row matching {match}")


deferred = one("logops_throughput", backend="seglog-deferred", per_pass=4)
eachput = one("logops_throughput", backend="seglog-eachput", per_pass=4)
speedup = deferred["ops_per_sec"] / max(eachput["ops_per_sec"], 1e-9)
print(
    f"logged ops, 4 per pass: seglog-deferred {deferred['ops_per_sec']:.0f} "
    f"ops/s ({deferred['fsyncs']} fsyncs), seglog-eachput "
    f"{eachput['ops_per_sec']:.0f} ops/s ({eachput['fsyncs']} fsyncs) -> "
    f"{speedup:.2f}x (floor {logops_ratio}x)"
)
if speedup < logops_ratio:
    sys.exit(
        f"REGRESSION: deferred-sync speedup {speedup:.2f}x fell below "
        f"{logops_ratio}x over a sync per put at 4 records per pass"
    )
if 4 * deferred["fsyncs"] > deferred["ops"]:
    sys.exit(
        f"REGRESSION: seglog-deferred issued {deferred['fsyncs']} fsyncs for "
        f"{deferred['ops']} ops in passes of 4 — more than one per pass"
    )

batched = one("udp_syscalls", batched=True)
if not batched.get("converged", False):
    sys.exit("REGRESSION: batched UDP run did not converge")
ratio = batched["syscalls_per_datagram"]
print(
    f"batched UDP: {batched['send_syscalls']} send syscalls / "
    f"{batched['send_datagrams']} datagrams = {ratio:.3f} "
    f"(ceiling {udp_ratio})"
)
if ratio >= udp_ratio:
    sys.exit(
        f"REGRESSION: batched send syscalls/datagram {ratio:.3f} >= "
        f"{udp_ratio} — sendmmsg batching stopped coalescing"
    )
print("batched-I/O regression guard: OK")
PYEOF
