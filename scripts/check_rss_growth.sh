#!/usr/bin/env bash
# Guards how memory grows with a run's history on the real stack (3 UdpHosts
# + SegmentedLogStorage, in one e2e_bench process). Reads the `metric` lines
# of two untraced kv-leader repetitions of the same seed, a short and a long
# one, and fails when peak RSS grows by more than MAX_KIB per delivered
# command between them:
#
#   .bench_build/e2ebench/e2e_bench --workload kv-leader --seed 1 --rep 0 \
#       --seconds 1 --trace 0 --dir /tmp/e2e-1s > short.txt
#   .bench_build/e2ebench/e2e_bench --workload kv-leader --seed 1 --rep 0 \
#       --seconds 4 --trace 0 --dir /tmp/e2e-4s > long.txt
#   scripts/check_rss_growth.sh short.txt long.txt
#
# The slope (delta rss_mb) / (delta commit_samples) cancels what every run
# pays once (binary, sockets, buffers). Run e2e_bench from a shell, not from
# a large parent process: rss_mb is the process's ru_maxrss, which starts
# from the peak its parent had at fork.
#
# On kv-leader, seed 1, the cluster holds no value per decided command: the
# segmented log keeps an index and reads values back, consensus caches only
# its newest decisions and basic mode keeps no Agreed suffix. What grows is
# mostly the log's key index, about 1.0-1.1 KiB per command across the three
# replicas. Holding every decided value in memory again reads 2.4-2.8.
#
# Exit status: 0 within the bound, 1 above it, 2 on bad usage or input.
set -euo pipefail

MAX_KIB=1.5

if [[ $# -ne 2 || ! -f "$1" || ! -f "$2" ]]; then
  echo "usage: $0 SHORT_E2E_BENCH_OUTPUT LONG_E2E_BENCH_OUTPUT" >&2
  exit 2
fi

awk -v max_kib="${MAX_KIB}" '
  $1 == "metric" && ($2 == "rss_mb" || $2 == "commit_samples") {
    value[FILENAME, $2] = $3
    files[FILENAME] = 1
  }
  END {
    n = 0
    for (f in files) name[n++] = f
    if (n != 2) {
      print "check_rss_growth: need rss_mb and commit_samples from two runs" \
        > "/dev/stderr"
      exit 2
    }
    a = name[0]; b = name[1]
    if (value[a, "commit_samples"] + 0 > value[b, "commit_samples"] + 0) {
      t = a; a = b; b = t
    }
    cmds = value[b, "commit_samples"] - value[a, "commit_samples"]
    if (value[a, "rss_mb"] == "" || value[b, "rss_mb"] == "" || cmds <= 0) {
      print "check_rss_growth: the runs must deliver different numbers of commands" \
        > "/dev/stderr"
      exit 2
    }
    kib = (value[b, "rss_mb"] - value[a, "rss_mb"]) * 1024 / cmds
    printf "rss %.2f -> %.2f MiB over %d more commands: %.3f KiB per command (max %s)\n",
      value[a, "rss_mb"], value[b, "rss_mb"], cmds, kib, max_kib
    if (kib > max_kib + 0) {
      print "check_rss_growth: memory grows with history above its bound" \
        > "/dev/stderr"
      exit 1
    }
  }
' "$1" "$2"
