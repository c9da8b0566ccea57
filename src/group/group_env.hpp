// Per-group host environment facade, and the envelope that carries its
// datagrams.
//
// Each group's NodeStack runs against a GroupHostEnv instead of the real
// host Env. The facade (a) renames the process id space — a stack addresses
// its peers by member index into the group's row of the layout, not by
// global node id; (b) wraps every outgoing datagram in a kGroupEnvelope so
// the receiving node's demux can route it to the right stack; (c) scopes
// stable storage under "g<gid>/" so N stacks share one physical log without
// key collisions; and (d) tags every trace event with the group id so the
// offline checker can split the merged per-node trace into per-group
// sub-traces. Both multi-group NodeApps use it: the sharded KV (one stack
// per row a node serves) and §6.4 multicast (one stack, the node's row).
//
// The envelope is sealed (wrap) and opened (unwrap) here, side by side:
// unwrap is the one place an inbound envelope's group and sender are
// checked against the layout before its inner message reaches a stack.
//
// The facade lives INSIDE the crash boundary (owned by the multi-group
// NodeApp), so a crash destroys all groups' volatile state at once — one
// node, one failure domain, exactly like the paper's single-group model
// seen N times.
#pragma once

#include <optional>
#include <vector>

#include "common/check.hpp"
#include "env/env.hpp"
#include "group/group_config.hpp"
#include "group/group_wire.hpp"
#include "obs/trace.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast::group {

/// Seals `inner` for group `gid`'s stacks.
inline Wire wrap(std::uint32_t gid, const Wire& inner) {
  return make_wire(kGroupEnvelope, GroupEnvelopeMsg{gid, inner});
}

/// An opened envelope: the group it addresses, the sender's member index in
/// that group's row, and the inner message for the group's stack.
struct Unwrapped {
  std::uint32_t group = 0;
  ProcessId from = kNoProcess;
  Wire inner;
};

/// Opens a datagram that global node `from` sent. Returns nothing when it
/// is not an envelope, does not decode, names a group the layout lacks, or
/// comes from a node outside that group's row.
inline std::optional<Unwrapped> unwrap(const GroupConfig& layout,
                                       ProcessId from, const Wire& msg) {
  if (msg.type != kGroupEnvelope) return std::nullopt;
  GroupEnvelopeMsg envelope;
  try {
    envelope = decode_from_bytes<GroupEnvelopeMsg>(msg.payload);
  } catch (const CodecError&) {
    return std::nullopt;
  }
  const auto member = layout.member_index(envelope.group, from);
  if (!member) return std::nullopt;
  return Unwrapped{envelope.group, *member, std::move(envelope.inner)};
}

class GroupHostEnv final : public Env {
 public:
  /// Narrows `parent` to group `gid` of `layout`, whose row must contain
  /// `parent.self()`; `parent` must outlive the facade.
  GroupHostEnv(Env& parent, const GroupConfig& layout, std::uint32_t gid)
      : parent_(parent),
        gid_(gid),
        self_index_(
            layout.member_index(gid, parent.self()).value_or(kNoProcess)),
        storage_(parent.storage(), "g" + std::to_string(gid)) {
    ABCAST_CHECK_MSG(self_index_ != kNoProcess,
                     "node does not serve this group");
    members_ = layout.members[gid];
    if (auto* rec = parent_.tracer()) {
      // Trace group tags are gid+1: tag 0 means "untagged host event" in
      // the merged trace, so real group 0 must not collide with it.
      tagged_.emplace(*rec, gid_ + 1);
    }
  }

  std::uint32_t gid() const { return gid_; }
  const std::vector<ProcessId>& members() const { return members_; }

  ProcessId self() const override { return self_index_; }
  std::uint32_t group_size() const override {
    return static_cast<std::uint32_t>(members_.size());
  }
  TimePoint now() const override { return parent_.now(); }

  TimerId schedule_after(Duration delay, std::function<void()> fn) override {
    return parent_.schedule_after(delay, std::move(fn));
  }
  void cancel_timer(TimerId id) override { parent_.cancel_timer(id); }

  void send(ProcessId to, const Wire& msg) override {
    ABCAST_CHECK(to < members_.size());
    parent_.send(members_[to], wrap(gid_, msg));
  }

  /// The parent's limit less the envelope every datagram is sealed in.
  std::size_t max_datagram_bytes() const override {
    return parent_.max_datagram_bytes() - kEnvelopeBytes;
  }

  /// Encodes the envelope ONCE; the per-member copies share the payload
  /// (SharedBytes), preserving the copy-free multisend property.
  void multisend(const Wire& msg) override {
    const Wire wrapped = wrap(gid_, msg);
    for (const ProcessId global : members_) parent_.send(global, wrapped);
  }

  StableStorage& storage() override { return storage_; }
  Rng& rng() override { return parent_.rng(); }

  obs::TraceRecorder* tracer() override {
    return tagged_ ? &*tagged_ : nullptr;
  }

  /// Per-group stacks do NOT see the cluster registry: N stacks per node
  /// would collide on (name, labels) bindings. Node-level aggregates are
  /// bound by the owning NodeApp instead (GroupMetrics).
  obs::MetricsRegistry* metrics_registry() override { return nullptr; }

 private:
  Env& parent_;
  const std::uint32_t gid_;
  std::vector<ProcessId> members_;
  const ProcessId self_index_;
  ScopedStorage storage_;
  std::optional<obs::GroupTaggedRecorder> tagged_;
};

}  // namespace abcast::group
