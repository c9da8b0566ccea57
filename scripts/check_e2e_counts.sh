#!/usr/bin/env bash
# Guards what one consensus instance costs on the real stack (3 UdpHosts +
# SegmentedLogStorage). Reads the `metric` lines of one traced e2e_bench
# repetition and fails when the datagrams or the log puts per decided
# consensus instance exceed their bounds:
#
#   .bench_build/e2ebench/e2e_bench --workload kv-leader --seed 1 --rep 0 \
#       --seconds 1 --trace 1 --dir /tmp/e2e-trace | tee trace.txt
#   scripts/check_e2e_counts.sh trace.txt
#
# Counting per instance rather than per command keeps the bounds host
# independent: a slow host batches more commands into each instance, which
# moves the per-command figures but not these. On kv-leader, seed 1, the
# default leader orders an instance in one ACCEPT/ACCEPTED round trip (no
# phase 1 at ballot 1) and hands its own messages to itself without a
# datagram: about 7.2 datagrams and 7.0 puts per instance. Running phase 1
# for every instance reads 15.3 / 10.0, and sending self-addressed messages
# through the socket alone 9.3 datagrams, so either regression fails here.
#
# Exit status: 0 within bounds, 1 above a bound, 2 on bad usage or input.
set -euo pipefail

MAX_DATAGRAMS=8.5
MAX_PUTS=8

if [[ $# -ne 1 || ! -f "$1" ]]; then
  echo "usage: $0 E2E_BENCH_TRACE_OUTPUT" >&2
  exit 2
fi

awk -v max_d="${MAX_DATAGRAMS}" -v max_p="${MAX_PUTS}" '
  $1 == "metric" { value[$2] = $3 }
  END {
    inst = value["consensus.instances_per_msg"]
    dgrams = value["net.datagrams_per_msg"]
    puts = value["storage.puts_per_msg"]
    if (inst == "" || dgrams == "" || puts == "" || inst + 0 <= 0) {
      print "check_e2e_counts: no traced per-layer metrics in the input" \
        > "/dev/stderr"
      exit 2
    }
    d = dgrams / inst
    p = puts / inst
    printf "per consensus instance: %.2f datagrams (max %s), %.2f puts (max %s)\n",
      d, max_d, p, max_p
    if (d > max_d + 0 || p > max_p + 0) {
      print "check_e2e_counts: per-instance cost above its bound" \
        > "/dev/stderr"
      exit 1
    }
  }
' "$1"
