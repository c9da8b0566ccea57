#!/usr/bin/env bash
# Builds the tree with sanitizers and runs the test suite under them.
#
#   scripts/check_sanitize.sh                 # address,undefined (default)
#   scripts/check_sanitize.sh thread          # TSan over the threaded tests
#
# Uses a dedicated build directory per sanitizer set so instrumented and
# plain objects never mix.
#
# `thread` mode runs only tests carrying the `threaded` ctest label (real
# OS threads on the real-time host, UdpHost: udp, event loop, obs,
# integration, group_rt, multicast, the churn stress, rt_probe and the
# udp_cluster example). The
# simulation-harness tests are single-threaded by construction, so running
# them under TSan would only dilute the signal. Suppressions live in
# tsan.supp at the repo root and are reserved for vetted third-party
# frames — never for src/.
set -euo pipefail

SANITIZERS="${1:-address,undefined}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-sanitize-$(echo "${SANITIZERS}" | tr ',' '-')"

cmake -S "${ROOT}" -B "${BUILD}" -DABCAST_SANITIZE="${SANITIZERS}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j"$(nproc)"

# Make sanitizer findings fatal and loud.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:${UBSAN_OPTIONS:-}"
export TSAN_OPTIONS="suppressions=${ROOT}/tsan.supp:halt_on_error=1:second_deadlock_stack=1:${TSAN_OPTIONS:-}"

CTEST_ARGS=(--test-dir "${BUILD}" -j"$(nproc)" --output-on-failure)
if [[ "${SANITIZERS}" == *thread* ]]; then
  CTEST_ARGS+=(-L threaded)
fi

ctest "${CTEST_ARGS[@]}"
