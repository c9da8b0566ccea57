#include "group/sharded_kv.hpp"

#include <utility>

namespace abcast::group {
namespace {

/// Cadence of the hold-repair scan, and how long a one-sided hold must lag
/// before its payload is re-broadcast into the partner group.
constexpr Duration kRepairInterval = millis(150);
constexpr Duration kRepairGrace = millis(300);

}  // namespace

// ---------------------------------------------------------------- tracker

void PairTracker::on_hold(std::uint32_t gid, const ShardCommandMsg& op,
                          TimePoint now) {
  auto& info = pairs_[op.pair_id];
  if (!info.have_op) {
    info.op = op;
    info.have_op = true;
  }
  if (info.first_hold == 0) info.first_hold = now;
  auto& st = info.status[gid];
  if (st == Status::kNone) st = Status::kHeld;

  const std::uint32_t partner = gid == op.group_a ? op.group_b : op.group_a;
  const auto it = sinks_.find(partner);
  ABCAST_CHECK_MSG(it != sinks_.end(),
                   "cross-shard op spans a group not served locally");
  it->second->drain();
}

void PairTracker::on_complete(std::uint32_t gid, std::uint64_t pair_id) {
  pairs_[pair_id].status[gid] = Status::kDone;
}

PairTracker::Status PairTracker::status(std::uint64_t pair_id,
                                        std::uint32_t gid) const {
  const auto it = pairs_.find(pair_id);
  if (it == pairs_.end()) return Status::kNone;
  const auto st = it->second.status.find(gid);
  return st == it->second.status.end() ? Status::kNone : st->second;
}

std::vector<PairTracker::LaggingPair> PairTracker::lagging(TimePoint now,
                                                           Duration grace) {
  std::vector<LaggingPair> out;
  for (auto& [pair_id, info] : pairs_) {
    if (!info.have_op || info.op.group_a == info.op.group_b) continue;
    if (now - info.first_hold < grace) continue;
    if (info.last_repair != 0 && now - info.last_repair < grace) continue;
    for (const std::uint32_t g : {info.op.group_a, info.op.group_b}) {
      const auto st = info.status.find(g);
      if (st == info.status.end() || st->second == Status::kNone) {
        out.push_back({info.op, g});
        info.last_repair = now;
      }
    }
  }
  return out;
}

// ------------------------------------------------------------------ shard

ShardSink::ShardSink(Env& genv, std::uint32_t gid, PairTracker& tracker,
                     GroupMetrics& metrics)
    : env_(genv), gid_(gid), tracker_(tracker), metrics_(metrics) {}

void ShardSink::trace_pair(const char* what, const ShardCommandMsg& op) {
  if (auto* rec = env_.tracer()) {
    const std::uint32_t partner =
        gid_ == op.group_a ? op.group_b : op.group_a;
    rec->record(obs::EventKind::kCrossShard, env_.now(), partner, MsgId{},
                op.pair_id, what);
  }
}

void ShardSink::deliver(const core::AppMsg& msg) {
  ShardCommandMsg op;
  try {
    op = decode_from_bytes<ShardCommandMsg>(msg.payload);
  } catch (const CodecError&) {
    metrics_.malformed += 1;
    return;
  }
  if (op.kind == ShardCommandMsg::Kind::kPairOp) {
    // Repair re-broadcasts make a pair deliverable more than once per
    // group; the pair id makes the second delivery a no-op.
    if (tracker_.status(op.pair_id, gid_) != PairTracker::Status::kNone ||
        completed_.count(op.pair_id) != 0) {
      metrics_.pair_dups += 1;
      return;
    }
    metrics_.pair_holds += 1;
    trace_pair("hold", op);
    queue_.push_back(std::move(op));
    tracker_.on_hold(gid_, queue_.back(), env_.now());
  } else {
    queue_.push_back(std::move(op));
  }
  drain();
}

bool ShardSink::head_ready() const {
  const ShardCommandMsg& op = queue_.front();
  if (op.kind != ShardCommandMsg::Kind::kPairOp) return true;
  const std::uint32_t partner = gid_ == op.group_a ? op.group_b : op.group_a;
  return tracker_.partner_ready(op.pair_id, partner);
}

void ShardSink::apply_head() {
  ShardCommandMsg op = std::move(queue_.front());
  queue_.pop_front();
  if (op.kind != ShardCommandMsg::Kind::kPairOp) {
    kv_.apply(op.cmd);
    return;
  }
  if (op.group_a == op.group_b) {
    // Degenerate pair: both keys hash to this shard; the two commands apply
    // back-to-back at one order position.
    kv_.apply(op.cmd_a);
    kv_.apply(op.cmd_b);
  } else {
    kv_.apply(gid_ == op.group_a ? op.cmd_a : op.cmd_b);
  }
  completed_.insert(op.pair_id);
  metrics_.pair_applies += 1;
  trace_pair("apply", op);
  tracker_.on_complete(gid_, op.pair_id);
}

void ShardSink::drain() {
  if (draining_) {
    repoke_ = true;
    return;
  }
  draining_ = true;
  do {
    repoke_ = false;
    while (!queue_.empty() && head_ready()) apply_head();
  } while (repoke_);
  draining_ = false;
}

Bytes ShardSink::take_checkpoint() {
  BufWriter w;
  w.bytes(kv_.snapshot());
  w.u32(checked_u32(queue_.size()));
  for (const auto& op : queue_) op.encode(w);
  w.u32(checked_u32(completed_.size()));
  for (const std::uint64_t id : completed_) w.u64(id);
  return std::move(w).take();
}

void ShardSink::install_checkpoint(const Bytes& state) {
  kv_.restore(Bytes{});
  queue_.clear();
  completed_.clear();
  if (state.empty()) return;  // A-checkpoint(⊥): initial state

  BufReader r(state);
  kv_.restore(r.bytes());
  const auto n_pending = r.u32();
  for (std::uint32_t i = 0; i < n_pending; ++i) {
    queue_.push_back(ShardCommandMsg::decode(r));
  }
  const auto n_done = r.u32();
  for (std::uint32_t i = 0; i < n_done; ++i) completed_.insert(r.u64());
  r.expect_done();

  // Rebuild the (volatile) tracker's view of this shard: completed pairs
  // keep satisfying the partner's merge predicate, and reconstructed holds
  // re-arm it. The hold trace keeps the checker's "apply implies a hold at
  // this shard" rule sound on traces that begin at a checkpoint.
  for (const std::uint64_t id : completed_) tracker_.on_complete(gid_, id);
  for (const auto& op : queue_) {
    if (op.kind != ShardCommandMsg::Kind::kPairOp) continue;
    metrics_.pair_holds += 1;
    trace_pair("hold", op);
    tracker_.on_hold(gid_, op, env_.now());
  }
  drain();
}

// ------------------------------------------------------------------- node

namespace {

std::uint64_t mix_pair_id(ProcessId self, std::uint32_t ga, std::uint32_t gb,
                          std::uint64_t seq) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(self);
  mix(ga);
  mix(gb);
  mix(seq);
  return h;
}

}  // namespace

ShardedKvNode::ShardedKvNode(Env& env, ShardedKvOptions options)
    : env_(env), options_(std::move(options)), router_(options_.layout) {
  ABCAST_CHECK_MSG(options_.layout.valid(), "invalid group layout");
  ABCAST_CHECK(options_.layout.n_nodes == env_.group_size());
  for (const std::uint32_t g : options_.layout.groups_of(env_.self())) {
    slots_.push_back(std::make_unique<Slot>(env_, options_.layout, g,
                                            tracker_, metrics_,
                                            options_.stack));
    tracker_.attach(g, &slots_.back()->sink);
  }
  if (auto* reg = env_.metrics_registry()) {
    metrics_group_ = reg->group();
    const obs::Labels labels{{"node", std::to_string(env_.self())}};
    metrics_group_.bind("ab_group_envelopes_rx", labels,
                        &metrics_.envelopes_rx);
    metrics_group_.bind("ab_group_envelope_drops", labels,
                        &metrics_.envelope_drops);
    metrics_group_.bind("ab_group_submitted", labels, &metrics_.submitted);
    metrics_group_.bind("ab_group_pair_submitted", labels,
                        &metrics_.pair_submitted);
    metrics_group_.bind("ab_group_pair_holds", labels, &metrics_.pair_holds);
    metrics_group_.bind("ab_group_pair_applies", labels,
                        &metrics_.pair_applies);
    metrics_group_.bind("ab_group_pair_dups", labels, &metrics_.pair_dups);
    metrics_group_.bind("ab_group_pair_repairs", labels,
                        &metrics_.pair_repairs);
    metrics_group_.bind("ab_group_malformed", labels, &metrics_.malformed);
  }
}

void ShardedKvNode::start(bool recovering) {
  for (auto& slot : slots_) slot->stack.start(recovering);
  arm_repair_timer();
}

void ShardedKvNode::on_message(ProcessId from, const Wire& msg) {
  const auto opened = unwrap(options_.layout, from, msg);
  Slot* slot = opened ? find_slot(opened->group) : nullptr;
  if (slot == nullptr) {
    metrics_.envelope_drops += 1;
    return;
  }
  metrics_.envelopes_rx += 1;
  slot->stack.on_message(opened->from, opened->inner);
}

MsgId ShardedKvNode::submit(std::string_view key, Bytes kv_command) {
  return submit_to_group(router_.group_of_key(key), std::move(kv_command));
}

MsgId ShardedKvNode::submit_to_group(std::uint32_t g, Bytes kv_command) {
  Slot* slot = find_slot(g);
  ABCAST_CHECK_MSG(slot != nullptr,
                   "submitting node does not serve the target group");
  metrics_.submitted += 1;
  return slot->stack.ab().broadcast(
      encode_to_bytes(ShardCommandMsg::plain(std::move(kv_command))));
}

std::uint64_t ShardedKvNode::submit_pair(std::string_view key_a, Bytes cmd_a,
                                         std::string_view key_b,
                                         Bytes cmd_b) {
  std::uint32_t ga = router_.group_of_key(key_a);
  std::uint32_t gb = router_.group_of_key(key_b);
  if (ga > gb) {
    std::swap(ga, gb);
    std::swap(cmd_a, cmd_b);
  }
  Slot* sa = find_slot(ga);
  Slot* sb = find_slot(gb);
  ABCAST_CHECK_MSG(sa != nullptr && sb != nullptr,
                   "cross-shard op requires serving both owning groups");
  const std::uint64_t pair_id =
      mix_pair_id(env_.self(), ga, gb, sa->stack.ab().next_broadcast_id().seq);
  const Bytes payload = encode_to_bytes(ShardCommandMsg::pair(
      pair_id, ga, std::move(cmd_a), gb, std::move(cmd_b)));
  metrics_.pair_submitted += 1;
  sa->stack.ab().broadcast(payload);
  if (gb != ga) sb->stack.ab().broadcast(payload);
  return pair_id;
}

core::NodeStack& ShardedKvNode::stack(std::uint32_t g) {
  Slot* slot = find_slot(g);
  ABCAST_CHECK(slot != nullptr);
  return slot->stack;
}

ShardSink& ShardedKvNode::shard(std::uint32_t g) {
  Slot* slot = find_slot(g);
  ABCAST_CHECK(slot != nullptr);
  return slot->sink;
}

const ShardSink& ShardedKvNode::shard(std::uint32_t g) const {
  const Slot* slot = find_slot(g);
  ABCAST_CHECK(slot != nullptr);
  return slot->sink;
}

bool ShardedKvNode::drained() const {
  for (const auto& slot : slots_) {
    if (!slot->sink.drained()) return false;
  }
  return true;
}

ShardedKvNode::Slot* ShardedKvNode::find_slot(std::uint32_t g) {
  for (auto& slot : slots_) {
    if (slot->gid == g) return slot.get();
  }
  return nullptr;
}

const ShardedKvNode::Slot* ShardedKvNode::find_slot(std::uint32_t g) const {
  for (const auto& slot : slots_) {
    if (slot->gid == g) return slot.get();
  }
  return nullptr;
}

void ShardedKvNode::arm_repair_timer() {
  repair_timer_ = env_.schedule_after(kRepairInterval, [this] {
    run_repair();
    arm_repair_timer();
  });
}

void ShardedKvNode::run_repair() {
  for (const auto& lag : tracker_.lagging(env_.now(), kRepairGrace)) {
    Slot* slot = find_slot(lag.lagging_group);
    if (slot == nullptr) continue;
    metrics_.pair_repairs += 1;
    slot->stack.ab().broadcast(encode_to_bytes(lag.op));
  }
}

}  // namespace abcast::group
