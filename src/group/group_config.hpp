// Static multi-group layout and key routing.
//
// One membership (the node set 0..n_nodes-1) hosts N independent Atomic
// Broadcast groups — the Derecho subgroup/shard layout shape: a
// subgroup_shard_layout-style table lists, per group, the global node ids
// serving it, in member-index order. Each serving node runs one full
// NodeStack per group (failure detector + consensus + AB), so every group
// keeps the paper's crash-recovery guarantees independently; the layout is
// static for a run (reconfiguration is out of scope).
//
// GroupRouter is the client-side half: keys hash to group ids (FNV-1a mod
// N), so a partitioned KV spreads its keyspace across the N total orders.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace abcast::group {

struct GroupConfig {
  std::uint32_t n_nodes = 0;
  /// members[g] = global ProcessIds serving group g, in member-index order
  /// (a per-group stack addresses its peers by index into this row). Rows
  /// may overlap (the sharded KV: every node in every row) or be disjoint
  /// (§6.4 multicast: each node in exactly one row).
  std::vector<std::vector<ProcessId>> members;

  /// Every node serves every group — full replication, N orders. This is
  /// the layout the sharded KV and the scenario runner use: any node can
  /// submit to (and repair) any group.
  static GroupConfig uniform(std::uint32_t n_nodes, std::uint32_t n_groups);

  std::uint32_t group_count() const {
    return static_cast<std::uint32_t>(members.size());
  }

  bool serves(ProcessId node, std::uint32_t g) const {
    return member_index(g, node).has_value();
  }

  /// Index of `node` within members[g]; nothing when g is not a group of
  /// the layout or `node` does not serve it.
  std::optional<ProcessId> member_index(std::uint32_t g, ProcessId node) const;

  /// Groups served by `node`, ascending.
  std::vector<std::uint32_t> groups_of(ProcessId node) const;

  /// Structural sanity: every row non-empty, ids in range, no duplicates.
  bool valid() const;
};

/// Deterministic key → group routing shared by every client and replica
/// (the merge rule depends on all parties agreeing on owners). Owns its
/// copy of the layout, so it may outlive the config it was built from
/// (constructing one straight off GroupConfig::uniform(...) is fine).
class GroupRouter {
 public:
  explicit GroupRouter(GroupConfig config) : config_(std::move(config)) {
    ABCAST_CHECK(config_.group_count() > 0);
  }

  /// FNV-1a over the key bytes; stable across platforms and runs.
  static std::uint64_t key_hash(std::string_view key);

  std::uint32_t group_of_key(std::string_view key) const {
    return static_cast<std::uint32_t>(key_hash(key) % config_.group_count());
  }

  const GroupConfig& config() const { return config_; }

 private:
  GroupConfig config_;
};

}  // namespace abcast::group
