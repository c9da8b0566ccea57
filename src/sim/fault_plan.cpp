#include "sim/fault_plan.hpp"

#include "common/check.hpp"

namespace abcast::sim {
namespace {

/// A churn storage crash-point lands within the victim's next
/// [1, kStorageCrashOpWindow] storage operations...
constexpr std::int64_t kStorageCrashOpWindow = 4;
/// ...or, when the victim performs none within this deadline, is abandoned
/// for an outright kill.
constexpr Duration kStorageCrashDeadline = millis(200);

}  // namespace

void install_fault_script(Simulation& sim,
                          const std::vector<FaultEvent>& plan) {
  for (const auto& ev : plan) {
    ABCAST_CHECK(ev.process < sim.n());
    switch (ev.kind) {
      case FaultKind::kCrash:
        sim.crash_at(ev.at, ev.process);
        break;
      case FaultKind::kRecover:
        sim.recover_at(ev.at, ev.process);
        break;
      case FaultKind::kCrashAtStorageOp: {
        const ProcessId p = ev.process;
        const std::uint64_t ops = ev.op_index == 0 ? 1 : ev.op_index;
        const CrashPhase phase = ev.phase;
        sim.at(ev.at, [&sim, p, ops, phase] {
          if (sim.host(p).is_up()) {
            sim.storage_faults(p).arm_crash_in(ops, phase);
          }
        });
        break;
      }
    }
  }
}

ChurnInjector::ChurnInjector(Simulation& sim, ChurnConfig config) {
  if (config.victims.empty()) {
    for (ProcessId p = 0; p < sim.n(); ++p) config.victims.push_back(p);
  }
  if (config.max_down == 0) {
    // Strict minority: with n processes, keep at least floor(n/2)+1 up.
    config.max_down = (sim.n() - 1) / 2;
  }
  state_ = std::make_shared<State>();
  state_->sim = &sim;
  state_->config = std::move(config);
  for (const ProcessId p : state_->config.victims) {
    ABCAST_CHECK(p < sim.n());
    arm_crash(state_, p);
  }
}

void ChurnInjector::arm_crash(const std::shared_ptr<State>& state,
                              ProcessId p) {
  Simulation& sim = *state->sim;
  const Duration wait = sim.rng().exponential(state->config.mtbf);
  TimePoint when = sim.now() + wait;
  if (when < state->config.start) when = state->config.start + wait;
  if (when >= state->config.stop) return;  // churn window over
  sim.at(when, [state, p] {
    Simulation& s = *state->sim;
    if (!s.host(p).is_up() || state->down_now >= state->config.max_down) {
      // Could not crash now (already down, or quorum guard); retry later.
      arm_crash(state, p);
      return;
    }
    // The down slot is reserved immediately in both branches — a pending
    // storage crash-point counts against max_down from the moment it is
    // armed, so the quorum guard can never be overshot by crash-points in
    // flight.
    state->down_now += 1;
    state->crashes += 1;
    if (s.rng().chance(state->config.storage_crash_prob)) {
      state->storage_crashes += 1;
      const auto ops = static_cast<std::uint64_t>(
          s.rng().uniform(1, kStorageCrashOpWindow));
      const auto phase = static_cast<CrashPhase>(s.rng().uniform(0, 2));
      s.storage_faults(p).arm_crash_in(ops, phase);
      // Recovery (and the idle-process fallback kill) happen at the
      // deadline: by then the crash-point has either fired or is abandoned.
      s.after(kStorageCrashDeadline, [state, p] {
        Simulation& s2 = *state->sim;
        if (s2.host(p).is_up()) {
          s2.storage_faults(p).disarm_crash_point();
          s2.crash(p);
        }
        arm_recover(state, p);
      });
    } else {
      s.crash(p);
      arm_recover(state, p);
    }
  });
}

void ChurnInjector::arm_recover(const std::shared_ptr<State>& state,
                                ProcessId p) {
  Simulation& sim = *state->sim;
  const Duration wait = sim.rng().exponential(state->config.mttr);
  sim.after(wait, [state, p] {
    Simulation& s = *state->sim;
    if (s.host(p).is_up() || s.recover(p)) {
      // Up again (recovered now, or was never successfully crashed because
      // an armed crash-point found it already down); release the slot.
      state->down_now -= 1;
      arm_crash(state, p);
    } else {
      // The recovery itself died on a storage fault: the host stays down
      // and keeps its reserved slot; try again after another MTTR draw.
      state->failed_recoveries += 1;
      arm_recover(state, p);
    }
  });
}

// ------------------------------------------------------------- AutoMedic

AutoMedic::AutoMedic(Simulation& sim, Duration check_interval) {
  state_ = std::make_shared<State>();
  state_->sim = &sim;
  state_->interval = check_interval;
  arm(state_);
}

void AutoMedic::arm(const std::shared_ptr<State>& state) {
  Simulation& sim = *state->sim;
  sim.after(state->interval, [state] {
    Simulation& s = *state->sim;
    for (ProcessId p = 0; p < s.n(); ++p) {
      if (!s.host(p).is_up() && s.recover(p)) state->recoveries += 1;
    }
    arm(state);
  });
}

}  // namespace abcast::sim
