// Bounded-output failure detector: a plain suspect list (paper §3.5,
// citing Hurfin-Mostefaoui-Raynal and Oliveira-Guerraoui-Schiper).
//
// Heartbeats carry no epoch, so the output is bounded — but, as the paper
// notes, such detectors cannot distinguish a recovered process from one
// that never crashed. Operationally that means every flap looks like a
// wrong suspicion and grows the adaptive timeout, and the stack must log
// its own incarnation number (one extra log op per recovery compared with
// the epoch detector — reported by the E1 experiment when configured).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "fd/failure_detector_base.hpp"

namespace abcast {

class SuspectListDetector final : public FailureDetector {
 public:
  explicit SuspectListDetector(Env& env);

  void start() override;
  void on_message(ProcessId from, const Wire& msg) override;

  /// The bounded output itself: currently suspected processes.
  std::vector<ProcessId> suspects() const;
};

}  // namespace abcast
