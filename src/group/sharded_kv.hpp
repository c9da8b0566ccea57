// Partitioned KV over N Atomic Broadcast groups, with cross-shard atomic
// operations via two-group deterministic commit (DESIGN.md §13).
//
// Single-shard commands are routed by key hash to the owning group and
// applied in that group's total order — N independent orders, N× the
// aggregate ordering throughput. A cross-shard op is broadcast in BOTH
// owning groups with an identical self-contained payload; each shard
// delivers it as a *hold* at its local order position and the effect
// applies at the deterministic merge point: a shard applies the head of its
// pending queue once the partner shard (on the same node) has delivered its
// hold. Because each shard only ever applies queue heads, the sequence of
// effects at a shard is a pure function of its group's delivery order —
// replicas converge regardless of cross-group timing, and messages decided
// in one Consensus round enter the queue in MsgId order (the paper's
// deterministic rule), so pair-id ordering breaks all remaining ties.
//
// Crash-recovery: holds are volatile but reconstructed for free — the
// per-group `Agreed` replay re-delivers them, and application checkpoints
// serialize the pending queue + completed-pair set, so a rejoining replica
// rebuilds exactly the merge state it crashed with. If the submitter dies
// between the two broadcasts, any replica that holds the op repairs the
// lagging group by re-broadcasting the (self-contained) payload there;
// delivery dedups by pair id, so repair is idempotent.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "apps/kv_store.hpp"
#include "common/relaxed_counter.hpp"
#include "core/delivery_sink.hpp"
#include "core/node_stack.hpp"
#include "group/group_config.hpp"
#include "group/group_env.hpp"
#include "group/group_wire.hpp"
#include "obs/metrics.hpp"

namespace abcast::group {

/// Node-level multi-group counters, indexed in EXPERIMENTS.md under the
/// ab_group_ prefix (ablint rule metrics-indexed).
struct GroupMetrics {
  RelaxedU64 envelopes_rx;    // envelopes demuxed to a local stack
  RelaxedU64 envelope_drops;  // malformed / unknown group / bogus sender
  RelaxedU64 submitted;       // single-shard commands routed + broadcast
  RelaxedU64 pair_submitted;  // cross-shard ops submitted at this node
  RelaxedU64 pair_holds;      // holds registered (delivery + replay)
  RelaxedU64 pair_applies;    // pair effects applied at a local shard
  RelaxedU64 pair_dups;       // duplicate pair deliveries dropped
  RelaxedU64 pair_repairs;    // repair re-broadcasts into a lagging group
  RelaxedU64 malformed;       // undecodable shard commands skipped
};

class ShardSink;

/// Volatile per-node registry of cross-shard pair state, shared by the
/// node's shards. Rebuilt after every crash by the per-group Agreed replay
/// and checkpoint re-installation (the ShardSink upcalls below), so it never
/// needs its own logging.
class PairTracker {
 public:
  enum class Status : std::uint8_t { kNone, kHeld, kDone };

  void attach(std::uint32_t gid, ShardSink* sink) { sinks_[gid] = sink; }

  /// A hold became pending at shard `gid` (fresh delivery, replay, or
  /// checkpoint reconstruction). Pokes the partner shard's drain — it may
  /// have been blocked at its head waiting for exactly this hold.
  void on_hold(std::uint32_t gid, const ShardCommandMsg& op, TimePoint now);

  /// Shard `gid` applied the pair's effect.
  void on_complete(std::uint32_t gid, std::uint64_t pair_id);

  Status status(std::uint64_t pair_id, std::uint32_t gid) const;

  /// The merge-point predicate: the partner shard on this node has at least
  /// delivered its hold (or already applied).
  bool partner_ready(std::uint64_t pair_id, std::uint32_t partner_gid) const {
    return status(pair_id, partner_gid) != Status::kNone;
  }

  struct LaggingPair {
    ShardCommandMsg op;
    std::uint32_t lagging_group = 0;
  };
  /// Pairs held by one local shard whose partner group shows no hold after
  /// `grace` — candidates for repair re-broadcast. Rate-limited: a pair is
  /// re-reported only once per `grace` window.
  std::vector<LaggingPair> lagging(TimePoint now, Duration grace);

 private:
  struct PairInfo {
    ShardCommandMsg op;  // empty (kind-default) until a hold supplies it
    bool have_op = false;
    std::map<std::uint32_t, Status> status;  // per owning group, this node
    TimePoint first_hold = 0;
    TimePoint last_repair = 0;
  };
  std::map<std::uint32_t, ShardSink*> sinks_;
  std::map<std::uint64_t, PairInfo> pairs_;
};

/// One group's shard: the group-order application of KvStore plus the
/// pending queue realizing the two-group commit. Lives inside the crash
/// boundary; all durable state flows through take/install_checkpoint and
/// the Agreed replay.
class ShardSink final : public core::DeliverySink {
 public:
  /// `genv` is the group's host env (its tracer tags events with the
  /// group); tracker and metrics are owned by the enclosing node.
  ShardSink(Env& genv, std::uint32_t gid, PairTracker& tracker,
            GroupMetrics& metrics);

  void deliver(const core::AppMsg& msg) override;
  Bytes take_checkpoint() override;
  void install_checkpoint(const Bytes& state) override;

  /// Applies every ready op at the queue head. Re-entrancy safe (a drain
  /// may poke the partner whose drain pokes back); called by the tracker
  /// when a partner hold lands.
  void drain();

  const apps::KvStore& kv() const { return kv_; }
  std::uint32_t gid() const { return gid_; }
  bool drained() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t digest() const { return kv_.digest(); }

 private:
  bool head_ready() const;
  void apply_head();
  void trace_pair(const char* what, const ShardCommandMsg& op);

  Env& env_;
  const std::uint32_t gid_;
  PairTracker& tracker_;
  GroupMetrics& metrics_;
  apps::KvStore kv_;
  std::deque<ShardCommandMsg> queue_;  // delivered, not yet applied
  std::set<std::uint64_t> completed_;  // pair ids applied at this shard
  bool draining_ = false;
  bool repoke_ = false;
};

struct ShardedKvOptions {
  GroupConfig layout;
  /// Per-group stack configuration (every group runs the same profile).
  core::StackConfig stack;
};

/// The multi-group NodeApp: one GroupHostEnv + ShardSink + NodeStack per
/// group this node serves, a demux routing unwrapped envelopes to the
/// right stack, key-hash submission routing, and the cross-shard commit
/// machinery. Transports see a single ordinary NodeApp.
class ShardedKvNode final : public NodeApp {
 public:
  ShardedKvNode(Env& env, ShardedKvOptions options);

  void start(bool recovering) override;
  void on_message(ProcessId from, const Wire& msg) override;

  /// Routes `kv_command` (KvCommand bytes) to the group owning `key`.
  /// This node must serve that group (uniform layouts always do).
  MsgId submit(std::string_view key, Bytes kv_command);
  MsgId submit_to_group(std::uint32_t g, Bytes kv_command);

  /// Cross-shard atomic op: `cmd_a` applies at key_a's shard and `cmd_b`
  /// at key_b's shard, both or (if no shard ever delivers) neither.
  /// Returns the pair id. This node must serve both owning groups.
  std::uint64_t submit_pair(std::string_view key_a, Bytes cmd_a,
                            std::string_view key_b, Bytes cmd_b);

  const GroupRouter& router() const { return router_; }
  const GroupConfig& layout() const { return options_.layout; }
  bool serves(std::uint32_t g) const { return find_slot(g) != nullptr; }
  core::NodeStack& stack(std::uint32_t g);
  ShardSink& shard(std::uint32_t g);
  const ShardSink& shard(std::uint32_t g) const;
  /// True when every local shard has applied everything it delivered.
  bool drained() const;
  const GroupMetrics& metrics() const { return metrics_; }

 private:
  struct Slot {
    std::uint32_t gid;
    GroupHostEnv genv;
    ShardSink sink;
    core::NodeStack stack;

    Slot(Env& parent, const GroupConfig& layout, std::uint32_t g,
         PairTracker& tracker, GroupMetrics& metrics,
         const core::StackConfig& config)
        : gid(g),
          genv(parent, layout, g),
          sink(genv, g, tracker, metrics),
          stack(genv, config, sink) {}
  };

  Slot* find_slot(std::uint32_t g);
  const Slot* find_slot(std::uint32_t g) const;
  void arm_repair_timer();
  void run_repair();

  Env& env_;
  ShardedKvOptions options_;
  GroupRouter router_;
  GroupMetrics metrics_;
  PairTracker tracker_;
  std::vector<std::unique_ptr<Slot>> slots_;
  TimerId repair_timer_ = 0;
  obs::MetricsGroup metrics_group_;  // declared last: unbinds before slots
};

}  // namespace abcast::group
