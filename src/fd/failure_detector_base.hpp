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
//
// Both run the heartbeat monitor implemented here, whose per-peer timeout
// grows whenever a suspicion proves wrong (eventual accuracy once delays
// stabilize); a detector supplies only its heartbeat and that rule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "env/env.hpp"
#include "fd/leader_oracle.hpp"

namespace abcast {

class FailureDetector : public LeaderOracle {
 public:
  /// Starts heartbeating and monitoring. Call once per incarnation.
  virtual void start() = 0;

  /// True for the heartbeat type this detector consumes.
  bool handles(MsgType type) const { return type == heartbeat_.type; }
  virtual void on_message(ProcessId from, const Wire& msg) = 0;

  // LeaderOracle
  bool trusted(ProcessId p) const override;
  /// The smallest trusted id (an Ω-style hint).
  ProcessId leader() const override;

  /// All currently trusted processes (always includes self).
  std::vector<ProcessId> trusted_set() const;

  /// This process's incarnation number, if the detector maintains one
  /// (epoch-based detectors log it in stable storage); 0 when the detector
  /// has bounded output and the caller must supply its own.
  virtual std::uint64_t incarnation() const { return 0; }

  /// Wrong-suspicion count — an accuracy metric for experiments.
  std::uint64_t wrong_suspicions() const { return wrong_suspicions_; }

 protected:
  FailureDetector(Env& env, MsgType heartbeat_type);

  /// Trusts every peer until its first timeout and starts multisending
  /// `payload` as the heartbeat every kHeartbeatPeriod.
  void start_monitor(SharedBytes payload);

  /// Records a heartbeat from `from` and trusts it again. If `from` was
  /// suspected and `suspicion_was_wrong`, counts a wrong suspicion and
  /// widens its timeout.
  void heard(ProcessId from, bool suspicion_was_wrong);

  Env& env_;

 private:
  /// Heartbeat multicast period.
  static constexpr Duration kHeartbeatPeriod = millis(20);
  /// Initial per-peer suspicion timeout.
  static constexpr Duration kInitialTimeout = millis(100);
  /// Added to a peer's timeout each time a suspicion of it proves wrong.
  static constexpr Duration kTimeoutIncrement = millis(50);

  struct PeerState {
    TimePoint last_heard = 0;
    Duration timeout = 0;
    bool trusted = false;
  };

  void tick();

  Wire heartbeat_;
  std::vector<PeerState> peers_;
  std::uint64_t wrong_suspicions_ = 0;
};

enum class FdKind { kEpoch, kSuspectList };

const char* to_string(FdKind kind);

std::unique_ptr<FailureDetector> make_failure_detector(FdKind kind, Env& env);

}  // namespace abcast
