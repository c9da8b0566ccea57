// Synod (single-decree Paxos) consensus engine for the crash-recovery model.
//
// Roles are collapsed: every process is acceptor and learner; the process
// nominated by the LeaderOracle drives proposals. Acceptor state
// (promised ballot, accepted ballot, accepted value) is logged in one record
// per instance ("acc/<k>") before any reply leaves the process, which is
// exactly what makes agreement *uniform* under crash-recovery. Only
// undecided instances have state here: a decided one is erased at once and
// never reloaded (EngineBase answers its messages with the decision).
//
// Ballot 1 belongs to p0's first incarnation and has no lower ballot, so it
// skips phase 1: the default leader orders an instance in one
// ACCEPT/ACCEPTED round trip. Every other ballot runs both phases, and a
// recovered p0 starts at 1 + n.
//
// Liveness safeguards beyond textbook Synod:
//  * retry with a higher ballot on timeout, but only while the oracle
//    nominates us (avoids duelling proposers);
//  * an acceptor holding an accepted-but-undecided value takes over as
//    proposer (with that value) if nominated — so a decision reached by a
//    proposer that then dies forever still propagates to all good processes
//    (needed for the paper's uniform Termination, lemma P7).
#pragma once

#include <map>
#include <set>

#include "consensus/engine_base.hpp"

namespace abcast {

class PaxosEngine final : public EngineBase {
 public:
  PaxosEngine(Env& env, const LeaderOracle& oracle);

  bool handles(MsgType type) const override {
    return type >= MsgType::kPaxosPrepare && type <= MsgType::kPaxosDecided;
  }
  std::size_t live_instances() const override { return instances_.size(); }

 protected:
  bool engine_load(InstanceId k, const Bytes& payload) override;
  void engine_propose(InstanceId k, const Bytes& value) override;
  void engine_tick() override;
  void engine_message(ProcessId from, const Wire& msg) override;
  void engine_decided(InstanceId k) override;
  void engine_truncate(InstanceId k) override;

 private:
  using Ballot = std::uint64_t;  // 0 = none; encodes (attempt, process)

  enum class Phase { kIdle, kPrepare, kAccept };

  struct PromiseInfo {
    Ballot accepted_ballot = 0;
    Bytes accepted_value;
  };

  struct Instance {
    // Proposer side (volatile).
    bool proposing = false;  // we hold a proposal (ours or taken over)
    Bytes proposal;
    Phase phase = Phase::kIdle;
    Ballot ballot = 0;          // ballot we are driving
    Ballot ballot_floor = 0;    // next ballot must exceed this (from nacks)
    std::map<ProcessId, PromiseInfo> promises;
    std::set<ProcessId> accepts;
    Bytes pushing;              // value being pushed in phase 2
    TimePoint phase_started = 0;
    TimePoint idle_since = 0;   // created, or last went idle undecided

    // Acceptor side (mirrored in stable storage).
    Ballot promised = 0;
    Ballot accepted_ballot = 0;
    Bytes accepted_value;
  };

  Ballot next_ballot(Ballot above) const;
  ProcessId ballot_owner(Ballot b) const;
  Instance& instance(InstanceId k);
  void persist_acceptor(InstanceId k, const Instance& inst);
  void start_ballot(InstanceId k, Instance& inst);
  /// Enters phase 2 of inst.ballot and multisends ACCEPT(ballot, value).
  void start_accept(InstanceId k, Instance& inst, const Bytes& value);
  void drive(InstanceId k, Instance& inst);

  std::map<InstanceId, Instance> instances_;
};

}  // namespace abcast
