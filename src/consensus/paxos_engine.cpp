#include "consensus/paxos_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/logging.hpp"
#include "consensus/consensus_wire.hpp"
#include "consensus/keys.hpp"
#include "storage/sealed_record.hpp"

namespace abcast {

using consensus_wire::AcceptedMsg;
using consensus_wire::AcceptMsg;
using consensus_wire::NackMsg;
using consensus_wire::PrepareMsg;
using consensus_wire::PromiseMsg;

PaxosEngine::PaxosEngine(Env& env, const LeaderOracle& oracle)
    : EngineBase(env, oracle, MsgType::kPaxosDecided, "acc") {}

// Ballot b > 0 encodes attempt a and owner p as b = a * n + p + 1.
PaxosEngine::Ballot PaxosEngine::next_ballot(Ballot above) const {
  const std::uint64_t n = env_.group_size();
  const std::uint64_t self = env_.self();
  std::uint64_t attempt = 0;
  Ballot b = attempt * n + self + 1;
  while (b <= above) {
    attempt += 1;
    b = attempt * n + self + 1;
  }
  return b;
}

ProcessId PaxosEngine::ballot_owner(Ballot b) const {
  ABCAST_CHECK(b > 0);
  return static_cast<ProcessId>((b - 1) % env_.group_size());
}

PaxosEngine::Instance& PaxosEngine::instance(InstanceId k) {
  auto [it, created] = instances_.try_emplace(k);
  // A non-nominee's patience runs from when it first heard of k.
  if (created) it->second.idle_since = env_.now();
  return it->second;
}

void PaxosEngine::persist_acceptor(InstanceId k, const Instance& inst) {
  BufWriter w;
  w.u64(inst.promised);
  w.u64(inst.accepted_ballot);
  w.bytes(inst.accepted_value);
  storage_.put(consensus_keys::inst_key("acc", k), seal_record(w.data()));
}

bool PaxosEngine::engine_load(InstanceId k, const Bytes& payload) {
  Instance loaded;
  try {
    BufReader r(payload);
    loaded.promised = r.u64();
    loaded.accepted_ballot = r.u64();
    loaded.accepted_value = r.bytes();
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }
  loaded.idle_since = env_.now();
  if (!has_decision(k)) instances_[k] = std::move(loaded);
  return true;
}

void PaxosEngine::engine_propose(InstanceId k, const Bytes& value) {
  // Proposing on a quarantined instance is NOT safe even though proposer
  // state is volatile: ballot uniqueness across our own crashes rests on
  // the self-promise stored in the (torn, discarded) acceptor record
  // (ballot 1 aside: only the first incarnation issues it).
  // next_ballot() could then reissue an old ballot with a different value.
  // Peers drive the instance; we learn the decision.
  if (is_quarantined(k)) return;
  Instance& inst = instance(k);
  if (inst.proposing) return;
  inst.proposing = true;
  inst.proposal = value;
  drive(k, inst);
}

void PaxosEngine::start_ballot(InstanceId k, Instance& inst) {
  // Only the first incarnation issues ballot 1 (see below).
  const Ballot first_free = first_incarnation() ? 0 : 1;
  inst.ballot = next_ballot(std::max({inst.ballot, inst.ballot_floor,
                                      inst.promised, first_free}));
  metrics_.attempts += 1;
  if (inst.ballot == 1) {
    // Ballot 1 is p0's first and no ballot is lower, so its phase 1 could
    // only report "nothing accepted". It carries one value per instance,
    // ever: the first incarnation's proposal, fixed until the decision (a
    // retry uses 1 + n). A recovered p0 may have lost that value to a torn
    // record while an ACCEPT(1, v) is still in flight, so it never reissues
    // ballot 1; phase 1 of 1 + n draws v back (PROTOCOL.md §4).
    start_accept(k, inst, inst.proposal);
    return;
  }
  inst.phase = Phase::kPrepare;
  inst.promises.clear();
  inst.accepts.clear();
  inst.phase_started = env_.now();
  env_.multisend(make_wire(MsgType::kPaxosPrepare, PrepareMsg{k, inst.ballot}));
}

void PaxosEngine::start_accept(InstanceId k, Instance& inst,
                               const Bytes& value) {
  inst.pushing = value;
  inst.phase = Phase::kAccept;
  inst.accepts.clear();
  inst.phase_started = env_.now();
  env_.multisend(make_wire(MsgType::kPaxosAccept,
                           AcceptMsg{k, inst.ballot, inst.pushing}));
}

// Starts or retries a ballot when this process should be driving instance k.
void PaxosEngine::drive(InstanceId k, Instance& inst) {
  // Take over a stalled instance if we hold an accepted value: a decided
  // value must survive its decider's death (see file header).
  const bool should_drive = inst.proposing || inst.accepted_ballot > 0;
  if (!should_drive) return;

  // Normally only the oracle's nominee drives (avoids duelling proposers),
  // but a non-nominee that has waited long enough drives anyway: the
  // nominee may simply hold no proposal for this instance. The patience is
  // staggered by process id so impatient processes wake one at a time.
  const TimePoint now = env_.now();
  const Duration patience =
      kProgressTimeout * static_cast<Duration>(3 + 2 * env_.self());
  const bool nominated = oracle_.leader() == env_.self();
  const bool impatient =
      inst.phase == Phase::kIdle && now - inst.idle_since > patience;
  if (!nominated && !impatient) return;

  if (!inst.proposing) {
    // Taking over: adopt the accepted value as our proposal. It was
    // proposed by some process, so Uniform Validity is preserved. Logged
    // first, like any proposal (P4).
    EngineBase::propose(k, inst.accepted_value);
    return;  // propose() re-enters engine_propose -> drive
  }

  if (inst.phase == Phase::kIdle) {
    start_ballot(k, inst);
  } else if (now - inst.phase_started > kProgressTimeout) {
    start_ballot(k, inst);
  }
}

void PaxosEngine::engine_tick() {
  for (auto& [k, inst] : instances_) drive(k, inst);
}

void PaxosEngine::engine_decided(InstanceId k) { instances_.erase(k); }

void PaxosEngine::engine_truncate(InstanceId k) {
  instances_.erase(instances_.begin(), instances_.lower_bound(k));
}

void PaxosEngine::engine_message(ProcessId from, const Wire& msg) {
  switch (msg.type) {
    case MsgType::kPaxosPrepare: {
      const auto m = decode_from_bytes<PrepareMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (m.ballot >= inst.promised) {
        if (m.ballot > inst.promised) {
          inst.promised = m.ballot;
          persist_acceptor(m.k, inst);
        }
        env_.send(from, make_wire(MsgType::kPaxosPromise,
                                  PromiseMsg{m.k, m.ballot,
                                             inst.accepted_ballot,
                                             inst.accepted_value}));
      } else {
        env_.send(from, make_wire(MsgType::kPaxosNack,
                                  NackMsg{m.k, inst.promised}));
      }
      return;
    }
    case MsgType::kPaxosPromise: {
      const auto m = decode_from_bytes<PromiseMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (inst.phase != Phase::kPrepare || m.ballot != inst.ballot) return;
      inst.promises[from] = PromiseInfo{m.accepted_ballot, m.accepted_value};
      if (inst.promises.size() < majority()) return;
      // Choose the accepted value of the highest accepted ballot, else our
      // own proposal — the Synod value-selection rule.
      Ballot best = 0;
      const Bytes* value = &inst.proposal;
      for (const auto& [p, info] : inst.promises) {
        if (info.accepted_ballot > best) {
          best = info.accepted_ballot;
          value = &info.accepted_value;
        }
      }
      start_accept(m.k, inst, *value);
      return;
    }
    case MsgType::kPaxosAccept: {
      const auto m = decode_from_bytes<AcceptMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (m.ballot >= inst.promised) {
        inst.promised = m.ballot;
        inst.accepted_ballot = m.ballot;
        inst.accepted_value = m.value;
        persist_acceptor(m.k, inst);  // before replying: uniformity
        env_.send(from, make_wire(MsgType::kPaxosAccepted,
                                  AcceptedMsg{m.k, m.ballot}));
      } else {
        env_.send(from, make_wire(MsgType::kPaxosNack,
                                  NackMsg{m.k, inst.promised}));
      }
      return;
    }
    case MsgType::kPaxosAccepted: {
      const auto m = decode_from_bytes<AcceptedMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (inst.phase != Phase::kAccept || m.ballot != inst.ballot) return;
      inst.accepts.insert(from);
      if (inst.accepts.size() >= majority()) {
        learn_decision(m.k, inst.pushing, /*i_decided=*/true);
      }
      return;
    }
    case MsgType::kPaxosNack: {
      const auto m = decode_from_bytes<NackMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (m.promised > inst.ballot_floor) inst.ballot_floor = m.promised;
      if (inst.phase != Phase::kIdle && m.promised > inst.ballot) {
        // Preempted; back off and let the tick retry if still nominated.
        inst.phase = Phase::kIdle;
        inst.idle_since = env_.now();
      }
      return;
    }
    default:
      ABCAST_CHECK_MSG(false, "unexpected paxos message type");
  }
}

}  // namespace abcast
