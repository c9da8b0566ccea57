// Pluggable failure-detector interface.
//
// The paper's protocol "does not require the explicit use of failure
// detectors (although those are required to solve the Consensus problem) —
// thus it is not bound to any particular failure detection mechanism"
// (§3.5). Two detector families from the literature it cites are provided:
//
//   * EpochFailureDetector — unbounded output (epoch counters), in the
//     style of Aguilera-Chen-Toueg [1]: observers can tell "still up" from
//     "crashed and recovered", and the epoch doubles as a free incarnation
//     number for the upper layers.
//   * SuspectListDetector — bounded output (just a suspect list), in the
//     style of Hurfin-Mostefaoui-Raynal [11] / Oliveira et al. [14]: no
//     epochs, so the stack must log its own incarnation counter instead.
#pragma once

#include <memory>
#include <vector>

#include "env/env.hpp"
#include "fd/leader_oracle.hpp"

namespace abcast {

class FailureDetector : public LeaderOracle {
 public:
  /// Starts heartbeating and monitoring. Call once per incarnation.
  virtual void start(bool recovering) = 0;

  virtual bool handles(MsgType type) const = 0;
  virtual void on_message(ProcessId from, const Wire& msg) = 0;

  /// All currently trusted processes (always includes self).
  virtual std::vector<ProcessId> trusted_set() const = 0;

  /// This process's incarnation number, if the detector maintains one
  /// (epoch-based detectors log it in stable storage); 0 when the detector
  /// has bounded output and the caller must supply its own.
  virtual std::uint64_t incarnation() const { return 0; }

  /// Wrong-suspicion count — an accuracy metric for experiments.
  virtual std::uint64_t wrong_suspicions() const = 0;

 protected:
  // ---- timing shared by both detectors ----------------------------------
  /// Heartbeat multicast period.
  static constexpr Duration kHeartbeatPeriod = millis(20);
  /// Initial per-peer suspicion timeout.
  static constexpr Duration kInitialTimeout = millis(100);
  /// Added to a peer's timeout each time a suspicion of it proves wrong.
  static constexpr Duration kTimeoutIncrement = millis(50);
};

enum class FdKind { kEpoch, kSuspectList };

const char* to_string(FdKind kind);

std::unique_ptr<FailureDetector> make_failure_detector(FdKind kind, Env& env);

}  // namespace abcast
