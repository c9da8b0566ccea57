// Full protocol stack for one process: failure detector + consensus engine
// + atomic broadcast, wired together as a NodeApp so the same object runs
// under the simulator and the real-time runtime.
//
//        application (DeliverySink)
//              ▲ deliver / checkpoint upcalls
//   ┌──────────┴──────────┐
//   │   AtomicBroadcast   │  gossip, state ────────┐
//   │      Consensus      │  paxos / coord ────────┤ wire
//   │   FailureDetector   │  heartbeats ───────────┘
//   └─────────────────────┘
#pragma once

#include <memory>

#include "consensus/consensus.hpp"
#include "core/atomic_broadcast.hpp"
#include "core/options.hpp"
#include "env/env.hpp"
#include "fd/failure_detector_base.hpp"

namespace abcast::core {

struct StackConfig {
  FdKind fd_kind = FdKind::kEpoch;
  ConsensusKind engine = ConsensusKind::kPaxos;
  Options ab;
};

class NodeStack final : public NodeApp {
 public:
  /// `sink` is the application; it must outlive the stack (in a simulated
  /// host it typically lives outside the crash boundary as the test
  /// oracle, or is owned by a wrapper that recreates it — see apps::Rsm).
  NodeStack(Env& env, StackConfig config, DeliverySink& sink);

  void start(bool recovering) override;
  void on_message(ProcessId from, const Wire& msg) override;

  AtomicBroadcast& ab() { return ab_; }
  const AtomicBroadcast& ab() const { return ab_; }
  FailureDetector& fd() { return *fd_; }
  ConsensusService& consensus() { return *cons_; }
  const ConsensusService& consensus() const { return *cons_; }

  /// This incarnation's number: the detector's epoch when it maintains one,
  /// otherwise a stack-logged counter (one extra log op per recovery —
  /// the bounded-output detector's hidden cost).
  std::uint64_t incarnation() const { return incarnation_; }

 private:
  std::uint64_t own_incarnation_bump();

  Env& env_;
  std::unique_ptr<FailureDetector> fd_;
  std::unique_ptr<ConsensusService> cons_;
  AtomicBroadcast ab_;
  std::uint64_t incarnation_ = 0;
};

}  // namespace abcast::core
