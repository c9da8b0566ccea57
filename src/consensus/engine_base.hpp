// Scaffolding shared by both consensus engines: proposal logging (the
// paper's "log is done as the first operation of the Consensus"), the
// decision log, the decider's one-shot decision push, the driver tick, and
// the recovery scan and truncation of every consensus record.
//
// Only undecided instances have proposal or engine state. A decided one
// keeps just its logged value, dec/<k>, which on_message answers any
// message about it with; memory caches only the newest such values. An
// engine drops an instance when it decides and never reloads it. Its
// records stay in storage until truncate_below.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "consensus/consensus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/durable_counter.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast {

class EngineBase : public ConsensusService {
 public:
  void start(std::uint64_t incarnation) final;
  void propose(InstanceId k, const Bytes& value) final;
  std::size_t max_value_bytes() const final;
  std::optional<Bytes> decision(InstanceId k) final;
  void set_decided_callback(DecidedCallback cb) final { decided_cb_ = std::move(cb); }
  bool proposed(InstanceId k) const final { return proposals_.count(k) != 0; }
  bool decided(InstanceId k) const final { return has_decision(k); }
  void offer_decisions(ProcessId to, InstanceId from_k,
                       std::uint32_t max) final;
  void truncate_below(InstanceId k) final;
  InstanceId low_water() const final { return low_water_; }
  void set_obsolete_callback(
      std::function<void(ProcessId, InstanceId)> cb) final {
    obsolete_cb_ = std::move(cb);
  }
  void on_message(ProcessId from, const Wire& msg) final;
  const StorageStats& storage_stats() const final { return storage_.stats(); }
  const ConsensusMetrics& metrics() const final { return metrics_; }

 protected:
  /// `decided_type` is the engine-specific MsgType that carries a decision;
  /// `family` names the engine's own record family ("<family>/<k>"), which
  /// start() scans and truncate_below() erases alongside the proposal and
  /// decision records.
  EngineBase(Env& env, const LeaderOracle& oracle, MsgType decided_type,
             const char* family);

  // ---- timing, fixed inside the black box --------------------------------
  /// Period of the engine driver tick (retries of undecided instances).
  static constexpr Duration kTickPeriod = millis(25);
  /// How long a proposer/round waits before retrying with a new
  /// ballot/round.
  static constexpr Duration kProgressTimeout = millis(150);

  // ---- hooks implemented by the concrete engine -------------------------
  /// Called from start() for each intact record of the engine's family at
  /// or above the low-water mark, in key order, after the decisions and
  /// proposals are loaded. Keeps the state only if `k` is undecided;
  /// returns false when `payload` does not decode (the base then counts,
  /// erases and quarantines it like a record that fails its seal).
  virtual bool engine_load(InstanceId k, const Bytes& payload) = 0;
  /// Called once per instance when a (canonical) proposal becomes active.
  virtual void engine_propose(InstanceId k, const Bytes& value) = 0;
  /// Called every tick; drive retries here.
  virtual void engine_tick() = 0;
  /// Engine-specific messages (everything but the decision). Never called
  /// for truncated or decided instances.
  virtual void engine_message(ProcessId from, const Wire& msg) = 0;
  /// `k` just decided: drop all of its state.
  virtual void engine_decided(InstanceId k) = 0;
  /// Drop the state of instances below `k`; the base erases their records.
  virtual void engine_truncate(InstanceId k) = 0;
  /// A message arrived for an instance this process is quarantined on (see
  /// is_quarantined). The engine may NOT act on the instance's state,
  /// but it may redirect the sender so the group makes progress without us
  /// (e.g. push it past rounds this process would have coordinated).
  virtual void engine_quarantined_message(ProcessId from, const Wire& msg) {
    (void)from;
    (void)msg;
  }

  // ---- services for the concrete engine ---------------------------------
  /// Records a decision (idempotent): logs it, pushes it once to every
  /// peer when `i_decided` (we produced the decision rather than learning
  /// it), and fires the callback. `value` may live inside the engine's
  /// state for `k`, which engine_decided(k) frees: it is read only before
  /// that call, and the callback gets the cached copy.
  void learn_decision(InstanceId k, const Bytes& value, bool i_decided);

  bool has_decision(InstanceId k) const {
    return k >= low_water_ &&
           (k < decided_below_ || decided_above_.count(k) != 0);
  }

  /// Amnesia containment. When recovery finds the engine's own record for
  /// instance `k` torn or corrupt, the process must not participate in `k`
  /// again: promises/estimates it durably made are forgotten, and acting
  /// as if they never happened can double-vote an instance. Quarantining
  /// drops every engine message for `k` (decisions still get through, so
  /// the decision is eventually learned from peers — safe as long as a
  /// majority of acceptors kept their records). Lifted automatically when
  /// the decision for `k` is learned or the instance is truncated.
  bool is_quarantined(InstanceId k) const {
    return quarantined_.count(k) != 0;
  }

  std::uint32_t majority() const { return env_.group_size() / 2 + 1; }

  /// True in the process's first incarnation: no earlier one can have sent
  /// anything, so nothing this one lost to a torn record was ever seen.
  bool first_incarnation() const { return incarnation_ == 1; }

  /// Records a protocol trace event when the host installed a recorder.
  void trace(obs::EventKind kind, InstanceId k, std::uint64_t arg = 0,
             std::string detail = {}) {
    if (tracer_ != nullptr) {
      tracer_->record(kind, env_.now(), k, MsgId{}, arg, std::move(detail));
    }
  }

  Env& env_;
  const LeaderOracle& oracle_;
  ScopedStorage storage_;
  ConsensusMetrics metrics_;

 private:
  /// Decision values kept in memory: about 90 ms of kv-leader's load.
  static constexpr std::size_t kDecisionCache = 256;

  void bind_metrics();
  void tick();
  /// Records that `k` (at or above low_water_, not yet decided) decided.
  void mark_decided(InstanceId k);
  /// Raises decided_below_ to `k` or above, over every decided instance.
  void advance_decided_below(InstanceId k);
  /// Evicts the oldest cached decisions down to `n`.
  void trim_decisions(std::size_t n);
  /// Decided instance `k`'s value: cached, or read from dec/<k>. A read
  /// failing its seal is retried once (read rot is non-sticky, as
  /// DurableCounter assumes); a second failure throws StorageIoError, so
  /// the process restarts and recovery treats the record as torn.
  Bytes decided_value(InstanceId k);
  /// Loads the records "<family>/<k>": erases those below the low-water
  /// mark (stragglers of an interrupted truncation), unseals the rest and
  /// hands each to `load`. A record that fails its seal or that `load`
  /// rejects is counted as corrupt and erased; returns those instances.
  std::vector<InstanceId> recover_records(
      const char* family,
      const std::function<bool(InstanceId, Bytes&&)>& load);

  /// Dual-slot low-water mark: a torn write while truncating loses at most
  /// the latest advance, and since records are only erased AFTER the mark
  /// put returns, the surviving (older) mark still covers every completed
  /// erase — the amnesia filter never opens up.
  DurableCounter trunc_mark_;
  MsgType decided_type_;
  const char* family_;
  DecidedCallback decided_cb_;
  std::function<void(ProcessId, InstanceId)> obsolete_cb_;
  std::map<InstanceId, Bytes> proposals_;  // undecided instances only
  // The newest decisions, at most kDecisionCache once AB's replay has read
  // those start() loaded (the first learn_decision or scheduled tick trims).
  std::map<InstanceId, Bytes> decisions_;
  // Decided: all of [low_water_, decided_below_), and decided_above_.
  InstanceId decided_below_ = 0;
  std::set<InstanceId> decided_above_;
  std::set<InstanceId> quarantined_;
  InstanceId low_water_ = 0;
  std::uint64_t incarnation_ = 0;  // set by start()
  obs::TraceRecorder* tracer_ = nullptr;  // host-owned; may be null
  bool started_ = false;
  // Declared last: unbinds metrics_ from the registry before it is
  // destroyed (crash destroys this object, not the registry).
  obs::MetricsGroup metrics_group_;
};

}  // namespace abcast
