// Epoch-based failure detector for the crash-recovery model.
//
// Follows the style of Aguilera, Chen & Toueg (DISC'98): each process keeps
// an *epoch* counter in stable storage, bumped on every recovery, and
// periodically multicasts a heartbeat carrying it through the shared
// adaptive-timeout monitor (failure_detector_base.hpp). A suspicion proved
// wrong when the peer comes back in the epoch it was last heard in. Epochs
// let observers distinguish "still up" from "crashed and came back" — the
// unbounded-output idea that avoids having to predict the future behaviour
// of bad processes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fd/failure_detector_base.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast {

class EpochFailureDetector final : public FailureDetector {
 public:
  /// `storage` scope used: "fd/". The detector logs exactly one record (its
  /// epoch) per start/recovery.
  explicit EpochFailureDetector(Env& env);

  /// Loads and bumps the epoch, then starts the heartbeat task. Call once.
  void start() override;
  void on_message(ProcessId from, const Wire& msg) override;

  /// This process's incarnation number (1 on first start).
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t incarnation() const override { return epoch_; }

  /// Last epoch heard from `p` (0 if never heard).
  std::uint64_t epoch_of(ProcessId p) const;

 private:
  ScopedStorage storage_;
  std::uint64_t epoch_ = 0;
  /// Last epoch heard per peer; epochs start at 1, so 0 is "never heard".
  std::vector<std::uint64_t> epochs_;
};

}  // namespace abcast
