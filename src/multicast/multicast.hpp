// Total-order multicast to distinct groups (paper §6.4).
//
// The paper: "The problem of efficiently implementing atomic multicast
// across different groups in crash (no-recovery) asynchronous systems has
// been solved in several papers [6, 17]. Since these solutions are based
// on a Consensus primitive, it is possible to extend them to crash-recovery
// systems using an approach similar to the one that has been followed
// here." This module does exactly that, following the timestamp scheme of
// [17] (Rodrigues-Guerraoui-Schiper, "Scalable Atomic Multicast") with
// every group-local step driven through the group's crash-recovery Atomic
// Broadcast:
//
//   1. PROPOSE — the multicast is A-broadcast inside each destination
//      group; on delivery the group's replicated logical clock advances and
//      becomes the group's *proposed timestamp* for the message.
//   2. Exchange — members push (group, proposed ts) to the other
//      destination groups with periodically retried FILL datagrams; a FILL
//      also carries the whole multicast, so a group that never saw it can
//      bootstrap it (this is what makes an initiator crash harmless).
//   3. FINAL — once a member holds proposals from every destination group
//      it A-broadcasts the final timestamp (the max) in its own group.
//   4. Delivery — messages are app-delivered in (final ts, id) order, as
//      soon as no still-pending message could receive a smaller final
//      timestamp (Skeen's deliverability condition).
//
// Each process serves exactly one group: its stack runs on the group
// layer's GroupHostEnv facade over a GroupConfig of disjoint rows, so its
// datagrams travel in the same envelope as the sharded KV's. FILLs are the
// one message outside the envelope.
//
// Crash-recovery for free: all per-group multicast state (clock, pending
// set, proposed/final timestamps) is a deterministic function of the
// group's AB delivery sequence, so the AB layer's replay rebuilds it after
// a crash; only the FILL retry timers are volatile and restart on
// recovery.
//
// Guarantee: messages sharing at least one destination group are delivered
// in the same relative order at *all* their destinations; per group,
// delivery is totally ordered.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "core/delivery_sink.hpp"
#include "core/node_stack.hpp"
#include "group/group_config.hpp"
#include "group/group_env.hpp"

namespace abcast::multicast {

/// Identity of a multicast: the AppMsg id of the PROPOSE that first
/// entered the initiator's group (globally unique).
using McId = MsgId;

struct McDelivery {
  McId id;
  Bytes payload;
  std::uint64_t final_ts = 0;
  std::vector<std::uint32_t> dest_groups;
};

using McDeliverFn = std::function<void(const McDelivery&)>;

class MulticastService;

/// The per-process node: a group-scoped protocol stack plus the multicast
/// layer. Construct via factory in a simulation/rt host.
class MulticastNode final : public NodeApp {
 public:
  /// `layout` must place every node in at most one row (disjoint groups),
  /// this process in exactly one. The group stack runs the default
  /// StackConfig: the multicast state is rebuilt from the AB delivery
  /// sequence alone, so neither checkpoint kind may fold it away.
  MulticastNode(Env& env, const group::GroupConfig& layout,
                McDeliverFn deliver);
  ~MulticastNode() override;

  void start(bool recovering) override;
  void on_message(ProcessId from, const Wire& msg) override;

  /// Multicasts `payload` to `dest_groups` (which must include this
  /// process's own group — the initiator anchors the message there).
  /// Returns the multicast id; completion is the McDeliverFn upcall.
  McId mcast(Bytes payload, std::vector<std::uint32_t> dest_groups);

  MulticastService& service() { return *service_; }
  core::NodeStack& stack() { return *stack_; }
  std::uint32_t group() const { return group_id_; }

 private:
  group::GroupConfig layout_;
  std::uint32_t group_id_;
  group::GroupHostEnv group_env_;
  std::unique_ptr<MulticastService> service_;  // is the stack's sink
  std::unique_ptr<core::NodeStack> stack_;
};

/// The multicast state machine of one group member. Exposed for tests;
/// normal use goes through MulticastNode.
class MulticastService final : public core::DeliverySink {
 public:
  MulticastService(Env& env, const group::GroupConfig& layout,
                   std::uint32_t group_id, McDeliverFn deliver);

  /// Wires the group stack (whose AB carries the control messages).
  void bind(core::NodeStack* stack) { stack_ = stack; }

  void start();

  McId mcast(Bytes payload, std::vector<std::uint32_t> dest_groups);

  // DeliverySink: every group-AB delivery flows through here.
  void deliver(const core::AppMsg& msg) override;

  /// A kMgFill datagram; dropped unless it passes the layout checks.
  void on_message(ProcessId global_from, const Wire& msg);

  // Introspection for tests/benches.
  std::uint64_t clock() const { return clock_; }
  std::size_t pending_count() const { return pending_.size(); }

 private:
  struct Pending {
    Bytes payload;
    std::vector<std::uint32_t> dests;
    std::uint64_t proposed_ts = 0;                 // our group's proposal
    std::map<std::uint32_t, std::uint64_t> remote; // group -> proposed ts
    std::optional<std::uint64_t> final_ts;
    bool final_broadcast = false;  // we already A-broadcast FINAL
  };

  void on_propose(const McId& id, Bytes payload,
                  std::vector<std::uint32_t> dests);
  void on_final(const McId& id, std::uint64_t ts);
  void maybe_finalize(const McId& id, Pending& p);
  void try_deliver();
  void fill_tick();
  void send_fill(const McId& id, const Pending& p, std::uint32_t to_group);

  Env& env_;  // the GLOBAL env (fill datagrams cross groups)
  group::GroupConfig layout_;
  std::uint32_t group_id_;
  McDeliverFn deliver_;
  core::NodeStack* stack_ = nullptr;

  std::uint64_t clock_ = 0;
  std::map<McId, Pending> pending_;
  // Completed multicasts: proposed ts kept so late FILL queries can still
  // be answered after delivery.
  std::map<McId, std::uint64_t> done_proposed_;
  std::set<McId> known_;  // PROPOSE dedup (pending or done)
  std::uint64_t mcast_counter_ = 0;  // per-incarnation initiation counter
};

}  // namespace abcast::multicast
