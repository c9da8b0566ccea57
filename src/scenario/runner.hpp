// Executes a Scenario against a simulated cluster and audits the run.
//
// The contract: the generator is the adversary, the checker is the oracle.
// run_scenario() installs every clause as simulation events, drives the
// open-loop load, and at the scenario horizon stops injecting: partitions
// heal, gray/slow-disk profiles reset, crash-points disarm (timer skew is
// permanent — it is a property of the host, not a fault window), every
// down process is pumped through recovery. The run then drains: all
// *required* submissions must deliver everywhere, the cluster must
// quiesce, and the merged protocol trace must pass `check_trace` strictly.
//
// Required submissions are the ones the paper's Termination property
// obliges: a broadcast that completed at a process which never crashed
// afterwards must be delivered. Under the alternative protocol
// (log_unordered) a completed broadcast is durable, so every completed
// submission is required regardless of later crashes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_check.hpp"
#include "obs/windowed.hpp"
#include "scenario/load.hpp"
#include "scenario/scenario.hpp"

namespace abcast::scenario {

/// Per-process stable-storage backend; empty means in-memory.
using StorageFactory =
    std::function<std::unique_ptr<StableStorage>(ProcessId)>;

struct RunResult {
  // ---- verdicts (ok() is the sweep's pass criterion) --------------------
  bool delivered = false;  // every required submission delivered everywhere
  bool quiesced = false;
  bool checker_ok = false;
  /// First failure in human terms; empty when ok(). An oracle violation
  /// (total order / integrity / validity, thrown mid-run) lands here too.
  std::string failure;

  // ---- what the run did -------------------------------------------------
  LoadStats load;
  std::uint64_t required = 0;     // submissions whose delivery was demanded
  std::uint64_t delivered_global = 0;  // length of the global order
  std::uint64_t events_fired = 0;
  /// FNV-1a over the global delivery order: two runs of the same scenario
  /// must produce the same digest (the determinism regression hook).
  std::uint64_t order_digest = 0;
  obs::CheckStats check_stats;

  // ---- SLO accounting ---------------------------------------------------
  std::vector<obs::WindowedLatency::Window> windows;
  obs::WindowedLatency::Window overall;

  bool ok() const { return delivered && quiesced && checker_ok; }
};

/// `storage_factory` overrides the in-memory backend: this is how a sweep
/// cell runs the whole oracle-checked scenario suite against a real on-disk
/// backend (e.g. SegmentedLogStorage), with the FaultyStorage decorator
/// layered on top as usual.
RunResult run_scenario(const Scenario& s,
                       const StorageFactory& storage_factory = {});

}  // namespace abcast::scenario
