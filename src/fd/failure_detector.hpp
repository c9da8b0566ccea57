// Epoch-based failure detector for the crash-recovery model.
//
// Follows the style of Aguilera, Chen & Toueg (DISC'98): each process keeps
// an *epoch* counter in stable storage, bumped on every recovery, and
// periodically multicasts a heartbeat carrying it. A peer is trusted while
// heartbeats keep arriving within an adaptive timeout; the timeout grows
// whenever a suspicion proves wrong, which yields eventual accuracy once
// message delays stabilize. Epochs let observers distinguish "still up"
// from "crashed and came back" — the unbounded-output idea that avoids
// having to predict the future behaviour of bad processes.
//
// The detector also exports an Ω-style leader hint (smallest trusted id),
// consumed by the consensus engines through the LeaderOracle interface.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "env/env.hpp"
#include "fd/failure_detector_base.hpp"
#include "fd/leader_oracle.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast {

class EpochFailureDetector final : public FailureDetector {
 public:
  /// `storage` scope used: "fd/". The detector logs exactly one record (its
  /// epoch) per start/recovery.
  explicit EpochFailureDetector(Env& env);

  /// Loads and bumps the epoch, then starts the heartbeat task. Call once.
  void start(bool recovering) override;

  /// True for datagram types this module consumes.
  bool handles(MsgType type) const override {
    return type == MsgType::kFdHeartbeat;
  }
  void on_message(ProcessId from, const Wire& msg) override;

  // LeaderOracle
  bool trusted(ProcessId p) const override;
  ProcessId leader() const override;

  /// All currently trusted processes (always includes self).
  std::vector<ProcessId> trusted_set() const override;

  /// This process's incarnation number (1 on first start).
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t incarnation() const override { return epoch_; }

  /// Last epoch heard from `p` (0 if never heard).
  std::uint64_t epoch_of(ProcessId p) const;

  /// Number of times a suspicion proved wrong (peer came back within the
  /// same epoch) — an accuracy metric for experiments.
  std::uint64_t wrong_suspicions() const override {
    return wrong_suspicions_;
  }

 private:
  struct PeerState {
    TimePoint last_heard = 0;
    Duration timeout = 0;
    std::uint64_t epoch = 0;
    bool trusted = false;
    bool ever_heard = false;
  };

  void tick();

  Env& env_;
  ScopedStorage storage_;
  std::uint64_t epoch_ = 0;
  std::vector<PeerState> peers_;
  std::uint64_t wrong_suspicions_ = 0;
};

}  // namespace abcast
