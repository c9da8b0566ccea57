// Rotating-coordinator consensus engine (Chandra-Toueg ◇S style, adapted to
// crash-recovery in the manner of Aguilera-Chen-Toueg and
// Hurfin-Mostefaoui-Raynal).
//
// Instance k proceeds in rounds r = 0,1,...; the coordinator of round r is
// process r mod n. Each participant sends its timestamped estimate to the
// coordinator; the coordinator picks the estimate with the highest
// timestamp from a majority, broadcasts it, and decides once a majority has
// *logged* and acknowledged the adoption. Participants advance to round r+1
// when the failure detector suspects the coordinator and the round has
// stalled. The per-instance record ("st/<k>": round, estimate, timestamp)
// is logged on every adoption and round advance, *before* the
// corresponding ack — that ordering is what makes agreement uniform across
// crashes. Only undecided instances have state here: a decided one is
// erased at once and never reloaded (EngineBase answers its messages with
// the decision).
//
// Compared to PaxosEngine this trades more log operations per instance for
// a fixed coordinator schedule (no leader oracle needed to pick a driver,
// only to suspect one) — exactly the kind of engine diversity the paper's
// black-box claim is about.
#pragma once

#include <map>
#include <set>

#include "consensus/engine_base.hpp"

namespace abcast {

class CoordEngine final : public EngineBase {
 public:
  CoordEngine(Env& env, const LeaderOracle& oracle);

  bool handles(MsgType type) const override {
    return type >= MsgType::kCoordEstimate && type <= MsgType::kCoordDecide;
  }
  std::size_t live_instances() const override { return instances_.size(); }

 protected:
  bool engine_load(InstanceId k, const Bytes& payload) override;
  void engine_propose(InstanceId k, const Bytes& value) override;
  void engine_tick() override;
  void engine_message(ProcessId from, const Wire& msg) override;
  void engine_decided(InstanceId k) override;
  void engine_truncate(InstanceId k) override;
  void engine_quarantined_message(ProcessId from, const Wire& msg) override;

 private:
  struct Instance {
    // Persistent (mirrored in "st/<k>"): current round, adopted estimate.
    std::uint64_t round = 0;
    bool has_est = false;
    Bytes est;
    std::uint64_t ts = 0;  // 0: initial; r + 1: adopted in round r

    // Volatile.
    bool active = false;           // participating (proposed or adopted)
    TimePoint round_started = 0;
    TimePoint last_estimate_sent = 0;
    // Coordinator state for `round` (only used when we coordinate it).
    std::map<ProcessId, std::pair<std::uint64_t, Bytes>> estimates;
    bool sent_newest = false;
    Bytes newest;
    std::set<ProcessId> acks;
    std::set<ProcessId> nacks;
  };

  ProcessId coord_of(std::uint64_t round) const {
    return static_cast<ProcessId>(round % env_.group_size());
  }

  Instance& instance(InstanceId k) { return instances_[k]; }
  void persist(InstanceId k, const Instance& inst);
  void send_estimate(InstanceId k, Instance& inst);
  void enter_round(InstanceId k, Instance& inst, std::uint64_t round);
  void advance_round(InstanceId k, Instance& inst);
  void catch_up(InstanceId k, Instance& inst, std::uint64_t round);
  void coordinate(InstanceId k, Instance& inst);

  std::map<InstanceId, Instance> instances_;
};

}  // namespace abcast
