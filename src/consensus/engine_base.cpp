#include "consensus/engine_base.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "consensus/consensus_wire.hpp"
#include "consensus/keys.hpp"
#include "storage/sealed_record.hpp"

namespace abcast {

using consensus_wire::DecidedMsg;

EngineBase::EngineBase(Env& env, const LeaderOracle& oracle,
                       MsgType decided_type, const char* family)
    : env_(env), oracle_(oracle),
      storage_(env.storage(), "cons"), trunc_mark_(storage_, "trunc"),
      decided_type_(decided_type), family_(family), tracer_(env.tracer()) {
  bind_metrics();
}

void EngineBase::bind_metrics() {
  auto* registry = env_.metrics_registry();
  if (registry == nullptr) return;
  const obs::Labels labels{{"node", std::to_string(env_.self())}};
  metrics_group_ = registry->group();
  metrics_group_.bind("cons_proposals", labels, &metrics_.proposals);
  metrics_group_.bind("cons_decided_local", labels, &metrics_.decided_local);
  metrics_group_.bind("cons_decided_learned", labels,
                      &metrics_.decided_learned);
  metrics_group_.bind("cons_attempts", labels, &metrics_.attempts);
  metrics_group_.bind("cons_corrupt_records", labels,
                      &metrics_.corrupt_records);
  metrics_group_.bind("cons_quarantined", labels, &metrics_.quarantined);
}

void EngineBase::start(std::uint64_t incarnation) {
  ABCAST_CHECK_MSG(!started_, "consensus started twice");
  started_ = true;
  incarnation_ = incarnation;

  low_water_ = trunc_mark_.load();
  decided_below_ = low_water_;
  metrics_.corrupt_records += trunc_mark_.corrupt_slots();

  // Rebuild the decided set and the undecided proposals. Decisions loaded
  // here do NOT fire the decided callback: the upper layer's recovery
  // procedure queries decision() explicitly while replaying (paper Fig. 2),
  // served from the cache, which keeps every loaded value until then.
  //
  // A record that fails its seal was torn by a crash mid-put. A torn
  // decision was never announced (learn_decision logs before the callback),
  // so treating the instance as undecided is consistent; the value is
  // relearned from any peer holding it. A torn proposal means propose()
  // never returned: the upper layer simply proposes afresh.
  recover_records("dec", [this](InstanceId k, Bytes&& v) {
    decisions_.emplace(k, std::move(v));
    mark_decided(k);
    return true;
  });
  recover_records("prop", [this](InstanceId k, Bytes&& v) {
    metrics_.proposals += 1;
    if (!has_decision(k)) proposals_.emplace(k, std::move(v));
    return true;
  });
  // A torn engine record means durable promises/estimates for k are
  // forgotten, decided or not: quarantine k (see is_quarantined).
  for (const InstanceId k :
       recover_records(family_, [this](InstanceId k, Bytes&& v) {
         return engine_load(k, v);
       })) {
    if (quarantined_.insert(k).second) metrics_.quarantined += 1;
  }

  // Resume participation in every proposed-but-undecided instance; the
  // proposal log is exactly what makes this safe (P4).
  for (const auto& [k, v] : proposals_) engine_propose(k, v);

  tick();
}

std::vector<InstanceId> EngineBase::recover_records(
    const char* family,
    const std::function<bool(InstanceId, Bytes&&)>& load) {
  std::vector<InstanceId> damaged;
  for (const auto& key : storage_.keys_with_prefix(std::string(family) + "/")) {
    const InstanceId k = consensus_keys::parse_inst(key);
    if (k < low_water_) {
      storage_.erase(key);  // finish an interrupted truncation
      continue;
    }
    std::optional<Bytes> payload;
    if (auto v = storage_.get(key)) payload = unseal_record(*v);
    if (!payload || !load(k, std::move(*payload))) {
      metrics_.corrupt_records += 1;
      storage_.erase(key);
      damaged.push_back(k);
    }
  }
  return damaged;
}

std::size_t EngineBase::max_value_bytes() const {
  return env_.max_datagram_bytes() - consensus_wire::kValueHeaderBytes;
}

void EngineBase::propose(InstanceId k, const Bytes& value) {
  ABCAST_CHECK_MSG(started_, "propose before start");
  ABCAST_CHECK_MSG(value.size() <= max_value_bytes(), "proposal too big");
  // Truncated instances are closed: their records are gone, so proposing
  // would re-run consensus with amnesia. A caller this far behind (its
  // checkpoint was lost to a torn write) is caught up by a state transfer,
  // not by re-deciding old instances. A decided instance has nothing left
  // to propose.
  if (k < low_water_ || has_decision(k)) return;
  auto it = proposals_.find(k);
  if (it == proposals_.end()) {
    // First proposal for k: log it before any other action, so the same
    // value is re-proposed after any crash (paper §4.3).
    storage_.put(consensus_keys::inst_key("prop", k), seal_record(value));
    if (tracer_ != nullptr) trace(obs::EventKind::kPropose, k, crc32(value));
    it = proposals_.emplace(k, value).first;
    metrics_.proposals += 1;
  }
  engine_propose(k, it->second);
}

std::optional<Bytes> EngineBase::decision(InstanceId k) {
  if (!has_decision(k)) return std::nullopt;
  return decided_value(k);
}

Bytes EngineBase::decided_value(InstanceId k) {
  if (auto it = decisions_.find(k); it != decisions_.end()) return it->second;
  const std::string key = consensus_keys::inst_key("dec", k);
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (auto raw = storage_.get(key)) {
      if (auto value = unseal_record(*raw)) return std::move(*value);
    }
  }
  throw StorageIoError("decision record " + key + " is damaged");
}

void EngineBase::mark_decided(InstanceId k) {
  decided_above_.insert(k);
  advance_decided_below(decided_below_);
}

void EngineBase::advance_decided_below(InstanceId k) {
  decided_below_ = std::max(decided_below_, k);
  auto it = decided_above_.begin();
  while (it != decided_above_.end() && *it <= decided_below_) {
    if (*it == decided_below_) decided_below_ += 1;
    it = decided_above_.erase(it);
  }
}

void EngineBase::trim_decisions(std::size_t n) {
  while (decisions_.size() > n) decisions_.erase(decisions_.begin());
}

void EngineBase::learn_decision(InstanceId k, const Bytes& value,
                                bool i_decided) {
  if (k < low_water_) return;  // already applied and truncated
  if (has_decision(k)) return;
  // Log before announcing: Uniform Agreement must hold even if we crash
  // immediately after the callback runs.
  storage_.put(consensus_keys::inst_key("dec", k), seal_record(value));
  if (tracer_ != nullptr) {  // the CRC reads the whole value: only if traced
    trace(obs::EventKind::kDecide, k, crc32(value),
          i_decided ? "local" : "learned");
  }
  trim_decisions(kDecisionCache - 1);
  const Bytes& logged = decisions_.emplace(k, value).first->second;
  mark_decided(k);
  proposals_.erase(k);
  quarantined_.erase(k);  // the outcome is known; amnesia no longer matters
  if (i_decided) {
    metrics_.decided_local += 1;
    // We produced this decision: push it once, unacked. A peer that misses
    // it pulls it (see consensus.hpp).
    const auto wire = make_wire(decided_type_, DecidedMsg{k, value});
    for (ProcessId p = 0; p < env_.group_size(); ++p) {
      if (p != env_.self()) env_.send(p, wire);
    }
  } else {
    metrics_.decided_learned += 1;
  }
  engine_decided(k);  // may free `value` (see the declaration)
  if (decided_cb_) decided_cb_(k, logged);
}

void EngineBase::on_message(ProcessId from, const Wire& msg) {
  if (msg.type == decided_type_) {
    const auto m = decode_from_bytes<DecidedMsg>(msg.payload);
    learn_decision(m.k, m.value, /*i_decided=*/false);
    return;
  }
  // Contract: every engine payload begins with the u64 instance id, so we
  // can filter truncated instances generically here.
  BufReader peek(msg.payload);
  const InstanceId k = peek.u64();
  if (k < low_water_) {
    // We no longer hold records for k; the sender is behind our checkpoint.
    if (obsolete_cb_) obsolete_cb_(from, k);
    return;
  }
  if (has_decision(k)) {
    // Any traffic about a decided instance means the sender has not learned
    // the outcome; short-circuit the whole protocol with the decision.
    env_.send(from, make_wire(decided_type_, DecidedMsg{k, decided_value(k)}));
    return;
  }
  if (is_quarantined(k)) {
    // Amnesiac for k: do not participate — but do not be a silent black
    // hole either. A quarantined process that peers keep trusting (it is
    // up and heartbeating) can otherwise stall the instance forever, e.g.
    // when it is the rotating coordinator of the current round. Give the
    // engine a chance to steer peers around us.
    engine_quarantined_message(from, msg);
    return;
  }
  engine_message(from, msg);
}

void EngineBase::offer_decisions(ProcessId to, InstanceId from_k,
                                 std::uint32_t max) {
  InstanceId k = std::max<InstanceId>(from_k, low_water_);
  for (std::uint32_t sent = 0; sent < max; ++sent, ++k) {
    if (k >= decided_below_) {
      const auto it = decided_above_.lower_bound(k);
      if (it == decided_above_.end()) return;
      k = *it;
    }
    env_.send(to, make_wire(decided_type_, DecidedMsg{k, decided_value(k)}));
  }
}

void EngineBase::truncate_below(InstanceId k) {
  if (k <= low_water_) return;
  // Persist the mark first: after a crash we must keep ignoring these
  // instances even if some record erases below did not complete. The mark
  // is dual-slot so a torn write of the new mark leaves the previous one —
  // which still covers every erase performed so far — intact.
  trunc_mark_.store(k);
  low_water_ = k;
  // Walk the stored keys: the in-memory maps do not list the proposal and
  // engine records of decided instances. Keys are zero-padded, so each
  // family's walk stops at the first key at or above k.
  for (const char* family : {"prop", "dec", family_}) {
    for (const auto& key :
         storage_.keys_with_prefix(std::string(family) + "/")) {
      if (consensus_keys::parse_inst(key) >= k) break;
      storage_.erase(key);
    }
  }
  proposals_.erase(proposals_.begin(), proposals_.lower_bound(k));
  decisions_.erase(decisions_.begin(), decisions_.lower_bound(k));
  advance_decided_below(k);
  quarantined_.erase(quarantined_.begin(), quarantined_.lower_bound(k));
  engine_truncate(k);
}

void EngineBase::tick() {
  engine_tick();
  env_.schedule_after(kTickPeriod, [this] {
    trim_decisions(kDecisionCache);
    tick();
  });
}

}  // namespace abcast
