#include "consensus/coord_engine.hpp"

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/logging.hpp"
#include "consensus/consensus_wire.hpp"
#include "consensus/keys.hpp"
#include "storage/sealed_record.hpp"

namespace abcast {

using consensus_wire::EstimateMsg;
using consensus_wire::NewEstimateMsg;
using consensus_wire::RoundMsg;

CoordEngine::CoordEngine(Env& env, const LeaderOracle& oracle)
    : EngineBase(env, oracle, MsgType::kCoordDecide, "st") {}

void CoordEngine::persist(InstanceId k, const Instance& inst) {
  BufWriter w;
  w.u64(inst.round);
  w.boolean(inst.has_est);
  w.u64(inst.ts);
  w.bytes(inst.est);
  storage_.put(consensus_keys::inst_key("st", k), seal_record(w.data()));
}

bool CoordEngine::engine_load(InstanceId k, const Bytes& payload) {
  Instance loaded;
  try {
    BufReader r(payload);
    loaded.round = r.u64();
    loaded.has_est = r.boolean();
    loaded.ts = r.u64();
    loaded.est = r.bytes();
    r.expect_done();
  } catch (const CodecError&) {
    return false;
  }
  if (has_decision(k)) return true;
  Instance& inst = instances_[k] = std::move(loaded);
  if (inst.has_est) {
    inst.active = true;
    inst.round_started = env_.now();
    send_estimate(k, inst);
  }
  return true;
}

void CoordEngine::engine_propose(InstanceId k, const Bytes& value) {
  // A quarantined instance must not be resurrected locally: proposing would
  // persist a fresh (round 0, ts 0) record over the forgotten one and the
  // coordinator path counts our own estimate without a message, bypassing
  // the quarantine filter. Peers drive the instance; we learn the decision.
  if (is_quarantined(k)) return;
  Instance& inst = instance(k);
  if (inst.active) return;
  if (!inst.has_est) {
    inst.has_est = true;
    inst.est = value;
    inst.ts = 0;
    persist(k, inst);
  }
  inst.active = true;
  inst.round_started = env_.now();
  send_estimate(k, inst);
}

void CoordEngine::send_estimate(InstanceId k, Instance& inst) {
  ABCAST_CHECK(inst.has_est);
  inst.last_estimate_sent = env_.now();
  // Multisend rather than coordinator-only: peers that have never heard of
  // this instance adopt the estimate and start participating, which is what
  // lets the coordinator assemble a majority of estimates even when only
  // one process proposed (e.g. when the proposer IS the coordinator).
  env_.multisend(make_wire(MsgType::kCoordEstimate,
                           EstimateMsg{k, inst.round, inst.ts, inst.est}));
}

void CoordEngine::enter_round(InstanceId k, Instance& inst,
                              std::uint64_t round) {
  inst.round = round;
  inst.round_started = env_.now();
  inst.estimates.clear();
  inst.sent_newest = false;
  inst.newest.clear();
  inst.acks.clear();
  inst.nacks.clear();
  persist(k, inst);  // round monotonicity must survive crashes (P1/P2)
  if (inst.active) send_estimate(k, inst);
}

void CoordEngine::advance_round(InstanceId k, Instance& inst) {
  const ProcessId old_coord = coord_of(inst.round);
  metrics_.attempts += 1;
  enter_round(k, inst, inst.round + 1);
  // Tell the abandoned coordinator where we went, so it stops waiting.
  env_.send(old_coord,
            make_wire(MsgType::kCoordNack, RoundMsg{k, inst.round}));
}

void CoordEngine::catch_up(InstanceId k, Instance& inst, std::uint64_t round) {
  if (round <= inst.round) return;
  enter_round(k, inst, round);
}

void CoordEngine::coordinate(InstanceId k, Instance& inst) {
  if (inst.sent_newest) return;
  if (coord_of(inst.round) != env_.self()) return;
  // Include our own estimate without a network round-trip.
  if (inst.has_est) {
    inst.estimates[env_.self()] = {inst.ts, inst.est};
  }
  if (inst.estimates.size() < majority()) return;
  std::uint64_t best_ts = 0;
  const Bytes* best = nullptr;
  for (const auto& [p, e] : inst.estimates) {
    if (best == nullptr || e.first >= best_ts) {
      best_ts = e.first;
      best = &e.second;
    }
  }
  ABCAST_CHECK(best != nullptr);
  inst.newest = *best;
  inst.sent_newest = true;
  env_.multisend(make_wire(MsgType::kCoordNewEstimate,
                           NewEstimateMsg{k, inst.round, inst.newest}));
}

void CoordEngine::engine_tick() {
  const TimePoint now = env_.now();
  for (auto& [k, inst] : instances_) {
    if (!inst.active) continue;
    const ProcessId coord = coord_of(inst.round);
    if (coord == env_.self()) {
      coordinate(k, inst);
      if (inst.sent_newest) {
        // Re-push the round's value to whoever has not logged+acked yet.
        const auto wire = make_wire(
            MsgType::kCoordNewEstimate,
            NewEstimateMsg{k, inst.round, inst.newest});
        for (ProcessId p = 0; p < env_.group_size(); ++p) {
          if (inst.acks.count(p) == 0) env_.send(p, wire);
        }
      } else if (inst.has_est &&
                 now - inst.last_estimate_sent >= kTickPeriod) {
        // Still collecting: keep soliciting participation — peers that were
        // down during the first multisend must eventually hear about the
        // instance or the estimate quorum never forms.
        send_estimate(k, inst);
      }
    } else {
      // Fair-lossy channel: keep re-sending our estimate for this round.
      if (now - inst.last_estimate_sent >= kTickPeriod) {
        send_estimate(k, inst);
      }
      // Move on only when the round stalled AND the detector suspects the
      // coordinator — never while it is trusted (◇S-style accuracy use).
      if (now - inst.round_started > kProgressTimeout &&
          !oracle_.trusted(coord)) {
        advance_round(k, inst);
      }
    }
  }
}

void CoordEngine::engine_decided(InstanceId k) { instances_.erase(k); }

void CoordEngine::engine_truncate(InstanceId k) {
  instances_.erase(instances_.begin(), instances_.lower_bound(k));
}

void CoordEngine::engine_quarantined_message(ProcessId from, const Wire& msg) {
  // We must not vote on this instance again, but peers keep trusting us (we
  // are up and heartbeating), so rounds we coordinate would stall forever:
  // round advancement needs suspicion, and suspicion never comes. Steer the
  // sender to the next round NOT coordinated by us. A nack only raises the
  // receiver's round — always safe (like ballot preemption), it just costs
  // an attempt.
  if (msg.type != MsgType::kCoordEstimate) return;
  // Every coord payload starts with (u64 k, u64 round).
  BufReader peek(msg.payload);
  const InstanceId k = peek.u64();
  const std::uint64_t round = peek.u64();
  // Redirect ONLY estimates for rounds we would coordinate: those are the
  // rounds that stall on our silence. Nacking anything else would yank
  // peers out of rounds where a healthy coordinator is making progress.
  if (coord_of(round) != env_.self()) return;
  std::uint64_t target = round + 1;
  if (coord_of(target) == env_.self()) target += 1;
  env_.send(from, make_wire(MsgType::kCoordNack, RoundMsg{k, target}));
}

void CoordEngine::engine_message(ProcessId from, const Wire& msg) {
  switch (msg.type) {
    case MsgType::kCoordEstimate: {
      const auto m = decode_from_bytes<EstimateMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (m.round < inst.round) {
        env_.send(from,
                  make_wire(MsgType::kCoordNack, RoundMsg{m.k, inst.round}));
        return;
      }
      catch_up(m.k, inst, m.round);
      if (!inst.has_est) {
        // First we hear of this instance: adopt the sender's (est, ts)
        // pair. Copying an existing pair preserves the locking invariant
        // and validity, and lets a coordinator that never proposed itself
        // contribute to the estimate quorum — without this, an instance
        // proposed by a single process could never gather a majority of
        // estimates.
        inst.has_est = true;
        inst.est = m.est;
        inst.ts = m.ts;
        inst.active = true;
        inst.round_started = env_.now();
        persist(m.k, inst);
      }
      if (coord_of(inst.round) == env_.self() && m.round == inst.round) {
        inst.estimates[from] = {m.ts, m.est};
        coordinate(m.k, inst);
      }
      return;
    }
    case MsgType::kCoordNewEstimate: {
      const auto m = decode_from_bytes<NewEstimateMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (m.round < inst.round) {
        env_.send(from,
                  make_wire(MsgType::kCoordNack, RoundMsg{m.k, inst.round}));
        return;
      }
      catch_up(m.k, inst, m.round);
      // Adopt, log, *then* acknowledge — the log-before-ack order is what
      // lets a majority of acks imply a durable majority lock on the value.
      // Stamped round + 1: a round-0 lock must outrank initial estimates.
      const bool already = inst.has_est && inst.ts == m.round + 1;
      if (!already) {
        inst.has_est = true;
        inst.est = m.value;
        inst.ts = m.round + 1;
        inst.active = true;
        persist(m.k, inst);
      }
      env_.send(from, make_wire(MsgType::kCoordAck, RoundMsg{m.k, m.round}));
      return;
    }
    case MsgType::kCoordAck: {
      const auto m = decode_from_bytes<RoundMsg>(msg.payload);
      Instance& inst = instance(m.k);
      if (coord_of(m.round) != env_.self() || m.round != inst.round) return;
      if (!inst.sent_newest) return;
      inst.acks.insert(from);
      if (inst.acks.size() >= majority()) {
        learn_decision(m.k, inst.newest, /*i_decided=*/true);
      }
      return;
    }
    case MsgType::kCoordNack: {
      const auto m = decode_from_bytes<RoundMsg>(msg.payload);
      Instance& inst = instance(m.k);
      // The sender is in a higher round; join it.
      catch_up(m.k, inst, m.round);
      return;
    }
    default:
      ABCAST_CHECK_MSG(false, "unexpected coord message type");
  }
}

}  // namespace abcast
