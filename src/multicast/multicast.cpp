#include "multicast/multicast.hpp"

#include <algorithm>
#include <tuple>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "core/app_msg.hpp"
#include "multicast/multicast_wire.hpp"

namespace abcast::multicast {
namespace {

// Intra-group control messages ride as AB payloads under these tags.
constexpr std::uint32_t kProposeTag = 0x4D475052;  // "MGPR"
constexpr std::uint32_t kFinalTag = 0x4D47464E;    // "MGFN"

/// Period of the FILL retry task (inter-group proposal exchange).
constexpr Duration kFillPeriod = millis(40);

struct ProposeMsg {
  McId id;
  std::vector<std::uint32_t> dests;
  Bytes payload;

  Bytes encode_payload() const {
    BufWriter w;
    w.u32(kProposeTag);
    w.msg_id(id);
    w.vec(dests, [](BufWriter& ww, std::uint32_t g) { ww.u32(g); });
    w.bytes(payload);
    return std::move(w).take();
  }
};

struct FinalMsg {
  McId id;
  std::uint64_t ts = 0;

  Bytes encode_payload() const {
    BufWriter w;
    w.u32(kFinalTag);
    w.msg_id(id);
    w.u64(ts);
    return std::move(w).take();
  }
};

// The one group `self` serves. Rows must be disjoint: a node in two rows
// would need two multicast stacks.
std::uint32_t own_group(const group::GroupConfig& layout, std::uint32_t n,
                        ProcessId self) {
  ABCAST_CHECK_MSG(layout.valid(), "invalid group layout");
  ABCAST_CHECK_MSG(layout.n_nodes == n, "layout does not match the host");
  for (ProcessId p = 0; p < n; ++p) {
    ABCAST_CHECK_MSG(layout.groups_of(p).size() <= 1,
                     "groups must be disjoint");
  }
  const auto mine = layout.groups_of(self);
  ABCAST_CHECK_MSG(mine.size() == 1, "process belongs to no group");
  return mine.front();
}

// A FILL enters only if its sender serves the group it speaks for and every
// group it names exists, that one included. Anything else could A-broadcast
// a PROPOSE naming unknown groups into our order, where fill_tick would
// chase it on every pass and every recovery would replay it.
bool admissible(const group::GroupConfig& layout, const FillMsg& fill,
                ProcessId from) {
  if (!layout.serves(from, fill.from_group)) return false;
  bool names_from_group = false;
  for (const auto g : fill.dests) {
    if (g >= layout.group_count()) return false;
    names_from_group = names_from_group || g == fill.from_group;
  }
  return names_from_group;
}

}  // namespace

// ----------------------------------------------------------- MulticastNode

MulticastNode::MulticastNode(Env& env, const group::GroupConfig& layout,
                             McDeliverFn deliver)
    : layout_(layout),
      group_id_(own_group(layout_, env.group_size(), env.self())),
      group_env_(env, layout_, group_id_) {
  service_ = std::make_unique<MulticastService>(env, layout_, group_id_,
                                                std::move(deliver));
  stack_ = std::make_unique<core::NodeStack>(
      group_env_, core::StackConfig{}, *service_);
  service_->bind(stack_.get());
}

MulticastNode::~MulticastNode() = default;

void MulticastNode::start(bool recovering) {
  stack_->start(recovering);
  service_->start();
}

void MulticastNode::on_message(ProcessId from, const Wire& msg) {
  if (msg.type == MsgType::kMgFill) {
    service_->on_message(from, msg);
    return;
  }
  // Group-stack traffic: only our own group's envelopes, from its members.
  const auto opened = group::unwrap(layout_, from, msg);
  if (opened && opened->group == group_id_) {
    stack_->on_message(opened->from, opened->inner);
  }
}

McId MulticastNode::mcast(Bytes payload,
                          std::vector<std::uint32_t> dest_groups) {
  return service_->mcast(std::move(payload), std::move(dest_groups));
}

// -------------------------------------------------------- MulticastService

MulticastService::MulticastService(Env& env,
                                   const group::GroupConfig& layout,
                                   std::uint32_t group_id,
                                   McDeliverFn deliver)
    : env_(env), layout_(layout), group_id_(group_id),
      deliver_(std::move(deliver)) {}

void MulticastService::start() {
  ABCAST_CHECK_MSG(stack_ != nullptr, "service not bound to a stack");
  fill_tick();
}

McId MulticastService::mcast(Bytes payload,
                             std::vector<std::uint32_t> dest_groups) {
  std::sort(dest_groups.begin(), dest_groups.end());
  dest_groups.erase(std::unique(dest_groups.begin(), dest_groups.end()),
                    dest_groups.end());
  ABCAST_CHECK_MSG(!dest_groups.empty(), "multicast needs destinations");
  for (const auto g : dest_groups) {
    ABCAST_CHECK_MSG(g < layout_.group_count(), "unknown group");
  }
  ABCAST_CHECK_MSG(std::find(dest_groups.begin(), dest_groups.end(),
                             group_id_) != dest_groups.end(),
                   "the initiator's own group must be a destination");

  mcast_counter_ += 1;
  ProposeMsg propose;
  propose.id = McId{env_.self(),
                    core::make_seq(stack_->incarnation(), mcast_counter_)};
  propose.dests = std::move(dest_groups);
  propose.payload = std::move(payload);
  stack_->ab().broadcast(propose.encode_payload());
  return propose.id;
}

// Every group-AB delivery lands here — the multicast state machine is a
// deterministic fold over this sequence, which is what makes recovery
// replay rebuild it exactly.
void MulticastService::deliver(const core::AppMsg& msg) {
  BufReader r(msg.payload);
  const std::uint32_t tag = r.u32();
  if (tag == kProposeTag) {
    const McId id = r.msg_id();
    auto dests = r.vec<std::uint32_t>([](BufReader& rr) { return rr.u32(); });
    Bytes payload = r.bytes();
    r.expect_done();
    on_propose(id, std::move(payload), std::move(dests));
  } else if (tag == kFinalTag) {
    const McId id = r.msg_id();
    const std::uint64_t ts = r.u64();
    r.expect_done();
    on_final(id, ts);
  } else {
    ABCAST_CHECK_MSG(false, "unknown multicast control tag");
  }
}

void MulticastService::on_propose(const McId& id, Bytes payload,
                                  std::vector<std::uint32_t> dests) {
  if (!known_.insert(id).second) return;  // duplicate PROPOSE broadcast
  clock_ += 1;
  Pending p;
  p.payload = std::move(payload);
  p.dests = std::move(dests);
  p.proposed_ts = clock_;
  auto [it, inserted] = pending_.emplace(id, std::move(p));
  ABCAST_CHECK(inserted);
  maybe_finalize(id, it->second);
  try_deliver();
}

void MulticastService::on_final(const McId& id, std::uint64_t ts) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // duplicate FINAL; already processed
  if (it->second.final_ts.has_value()) return;
  ABCAST_CHECK_MSG(ts >= it->second.proposed_ts,
                   "final timestamp below our proposal");
  it->second.final_ts = ts;
  clock_ = std::max(clock_, ts);
  try_deliver();
}

void MulticastService::maybe_finalize(const McId& id, Pending& p) {
  if (p.final_ts.has_value() || p.final_broadcast) return;
  // Single-group multicast: our proposal IS the final timestamp; no
  // exchange and no extra broadcast needed.
  if (p.dests.size() == 1) {
    ABCAST_CHECK(p.dests[0] == group_id_);
    p.final_ts = p.proposed_ts;
    return;
  }
  for (const auto g : p.dests) {
    if (g != group_id_ && p.remote.count(g) == 0) return;
  }
  std::uint64_t final_ts = p.proposed_ts;
  for (const auto& [g, ts] : p.remote) final_ts = std::max(final_ts, ts);
  stack_->ab().broadcast(FinalMsg{id, final_ts}.encode_payload());
  p.final_broadcast = true;
}

void MulticastService::try_deliver() {
  for (;;) {
    // The finalized message with the smallest (ts, id)...
    const McId* best_id = nullptr;
    const Pending* best = nullptr;
    for (const auto& [id, p] : pending_) {
      if (!p.final_ts.has_value()) continue;
      if (best == nullptr || std::tie(*p.final_ts, id) <
                                 std::tie(*best->final_ts, *best_id)) {
        best_id = &id;
        best = &p;
      }
    }
    if (best == nullptr) return;
    // ...is deliverable only if no still-open message could end up with a
    // smaller final timestamp (a final is never below its proposal).
    for (const auto& [id, p] : pending_) {
      if (p.final_ts.has_value()) continue;
      if (std::tie(p.proposed_ts, id) < std::tie(*best->final_ts, *best_id)) {
        return;
      }
    }
    McDelivery out;
    out.id = *best_id;
    out.payload = best->payload;
    out.final_ts = *best->final_ts;
    out.dest_groups = best->dests;
    done_proposed_.emplace(*best_id, best->proposed_ts);
    pending_.erase(*best_id);
    if (deliver_) deliver_(out);
  }
}

void MulticastService::send_fill(const McId& id, const Pending& p,
                                 std::uint32_t to_group) {
  FillMsg fill;
  fill.id = id;
  fill.from_group = group_id_;
  fill.proposed_ts = p.proposed_ts;
  fill.dests = p.dests;
  fill.payload = p.payload;
  const Wire wire = make_wire(MsgType::kMgFill, fill);
  for (const ProcessId member : layout_.members[to_group]) {
    env_.send(member, wire);
  }
}

void MulticastService::fill_tick() {
  // Push our proposal to every destination group we have not heard from —
  // retried forever (fair-lossy channels; peers may be down or recovering).
  for (const auto& [id, p] : pending_) {
    for (const auto g : p.dests) {
      if (g == group_id_) continue;
      if (p.remote.count(g) == 0) send_fill(id, p, g);
    }
  }
  env_.schedule_after(kFillPeriod, [this] { fill_tick(); });
}

void MulticastService::on_message(ProcessId global_from, const Wire& msg) {
  ABCAST_CHECK(msg.type == MsgType::kMgFill);
  FillMsg fill;
  try {
    fill = decode_from_bytes<FillMsg>(msg.payload);
  } catch (const CodecError&) {
    return;
  }
  if (!admissible(layout_, fill, global_from)) return;
  if (fill.from_group == group_id_) return;  // stray

  auto it = pending_.find(fill.id);
  if (it != pending_.end()) {
    it->second.remote.emplace(fill.from_group, fill.proposed_ts);
    maybe_finalize(fill.id, it->second);
    try_deliver();
  } else if (known_.count(fill.id) == 0) {
    // First we hear of this multicast (e.g. the initiator crashed before
    // reaching our group): bootstrap it through our group's AB. The remote
    // proposal itself will be re-learned through the fill exchange once
    // the PROPOSE is delivered.
    const bool ours = std::find(fill.dests.begin(), fill.dests.end(),
                                group_id_) != fill.dests.end();
    if (ours) {
      ProposeMsg propose;
      propose.id = fill.id;
      propose.dests = fill.dests;
      propose.payload = fill.payload;
      stack_->ab().broadcast(propose.encode_payload());
    }
  }

  // Whoever fills us is missing OUR proposal for this multicast (they only
  // push to groups they have not heard from): answer directly.
  std::uint64_t our_ts = 0;
  if (it != pending_.end()) {
    our_ts = it->second.proposed_ts;
  } else if (auto done = done_proposed_.find(fill.id);
             done != done_proposed_.end()) {
    our_ts = done->second;
  } else {
    return;  // nothing to answer yet
  }
  FillMsg reply;
  reply.id = fill.id;
  reply.from_group = group_id_;
  reply.proposed_ts = our_ts;
  if (it != pending_.end()) {
    reply.dests = it->second.dests;
    reply.payload = it->second.payload;
  } else {
    reply.dests = fill.dests;
    reply.payload = fill.payload;
  }
  env_.send(global_from, make_wire(MsgType::kMgFill, reply));
}

}  // namespace abcast::multicast
