// Crash/recovery fault injection.
//
// Two flavours: scripted plans (exact times, for targeted tests) and random
// churn (exponential MTBF/MTTR, for property sweeps and the fault-rate
// experiments). The random injector can be told to always keep a quorum of
// processes up, which is the liveness precondition of the underlying
// Consensus ("majority of good processes").
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/simulation.hpp"

namespace abcast::sim {

enum class FaultKind { kCrash, kRecover, kCrashAtStorageOp };

struct FaultEvent {
  TimePoint at = 0;
  ProcessId process = 0;
  FaultKind kind = FaultKind::kCrash;
  /// kCrashAtStorageOp only: the process crashes at its `op_index`-th
  /// storage operation counted from `at` (1 = the very next one), in the
  /// given phase. Lands the crash inside the log window instead of between
  /// operations, which plain kCrash can never do.
  std::uint64_t op_index = 1;
  CrashPhase phase = CrashPhase::kBeforeOp;
};

/// Installs a scripted list of crash/recover events. Events targeting a
/// process already in the requested state are ignored.
void install_fault_script(Simulation& sim, const std::vector<FaultEvent>& plan);

struct ChurnConfig {
  /// Mean time between failures of one process (exponential).
  Duration mtbf = seconds(5);
  /// Mean time to recover after a crash (exponential).
  Duration mttr = millis(500);
  /// Churn is active in [start, stop).
  TimePoint start = 0;
  TimePoint stop = std::numeric_limits<TimePoint>::max();
  /// At most this many processes down at once; 0 means "strict minority"
  /// (i.e., preserve a majority up — the Consensus liveness condition).
  std::uint32_t max_down = 0;
  /// Processes subject to churn; empty means all.
  std::vector<ProcessId> victims;
  /// Probability a churn crash is delivered as a storage crash-point (the
  /// process dies AT one of its next 4 log operations, in a random phase)
  /// instead of an immediate kill between operations. A victim that
  /// performs no storage operation within 200 ms is killed outright, so
  /// churn keeps its rate even over idle processes.
  double storage_crash_prob = 0.0;
};

/// Installs random crash/recovery churn driven by the simulation's RNG.
/// Returned handle keeps the injector alive; destroy after the run.
class ChurnInjector {
 public:
  ChurnInjector(Simulation& sim, ChurnConfig config);

  std::uint64_t crashes_injected() const { return state_->crashes; }
  /// Crashes delivered as storage crash-points (subset of crashes_injected;
  /// some may have fallen back to an outright kill at the deadline).
  std::uint64_t storage_crashes_armed() const {
    return state_->storage_crashes;
  }
  /// Recovery attempts that themselves died on a storage fault and were
  /// retried.
  std::uint64_t failed_recoveries() const { return state_->failed_recoveries; }

 private:
  struct State {
    Simulation* sim;
    ChurnConfig config;
    std::uint32_t down_now = 0;
    std::uint64_t crashes = 0;
    std::uint64_t storage_crashes = 0;
    std::uint64_t failed_recoveries = 0;
  };

  static void arm_crash(const std::shared_ptr<State>& state, ProcessId p);
  static void arm_recover(const std::shared_ptr<State>& state, ProcessId p);

  std::shared_ptr<State> state_;
};

/// Keeps the group alive under rate-driven storage faults: periodically
/// recovers any process found down. Pairs with StorageFaultProfile sweeps
/// (where crashes come from escaping faults at unpredictable times) the way
/// ChurnInjector pairs with scripted MTBF/MTTR churn. A recovery that itself
/// dies on a storage fault is simply retried at the next tick.
class AutoMedic {
 public:
  explicit AutoMedic(Simulation& sim, Duration check_interval = millis(100));

  std::uint64_t recoveries() const { return state_->recoveries; }

 private:
  struct State {
    Simulation* sim;
    Duration interval;
    std::uint64_t recoveries = 0;
  };

  static void arm(const std::shared_ptr<State>& state);

  std::shared_ptr<State> state_;
};

}  // namespace abcast::sim
