#include "group/sharded_cluster.hpp"

#include "common/check.hpp"

namespace abcast::group {

ShardedCluster::ShardedCluster(ShardedClusterConfig config)
    : config_(std::move(config)), sim_(config_.sim) {
  ABCAST_CHECK(config_.node.layout.n_nodes == config_.sim.n);
  sim_.set_node_factory([this](Env& env) {
    return std::make_unique<ShardedKvNode>(env, config_.node);
  });
}

ShardedKvNode* ShardedCluster::node(ProcessId p) {
  // The factory above only ever creates ShardedKvNodes.
  return static_cast<ShardedKvNode*>(sim_.node(p));
}

ShardedCluster::SubmitAttempt ShardedCluster::submit_may_crash(
    ProcessId p, std::string_view key, Bytes kv_command) {
  ShardedKvNode* n = node(p);
  ABCAST_CHECK_MSG(n != nullptr, "submit from a down process");
  SubmitAttempt out;
  out.group = n->router().group_of_key(key);
  out.id = n->stack(out.group).ab().next_broadcast_id();
  try {
    const MsgId actual = n->submit_to_group(out.group, std::move(kv_command));
    ABCAST_CHECK(actual == out.id);
    out.completed = true;
  } catch (const SimulatedCrash&) {
    sim_.host(p).crash_from_storage_fault();
  } catch (const StorageIoError&) {
    sim_.host(p).crash_from_storage_fault();
  }
  return out;
}

ShardedCluster::PairAttempt ShardedCluster::submit_pair_may_crash(
    ProcessId p, std::string_view key_a, Bytes cmd_a, std::string_view key_b,
    Bytes cmd_b) {
  ShardedKvNode* n = node(p);
  ABCAST_CHECK_MSG(n != nullptr, "submit from a down process");
  PairAttempt out;
  const std::uint32_t ga = n->router().group_of_key(key_a);
  const std::uint32_t gb = n->router().group_of_key(key_b);
  out.group_a = ga < gb ? ga : gb;
  out.group_b = ga < gb ? gb : ga;
  try {
    out.pair_id = n->submit_pair(key_a, std::move(cmd_a), key_b,
                                 std::move(cmd_b));
    out.completed = true;
  } catch (const SimulatedCrash&) {
    sim_.host(p).crash_from_storage_fault();
  } catch (const StorageIoError&) {
    sim_.host(p).crash_from_storage_fault();
  }
  return out;
}

bool ShardedCluster::delivered_everywhere(std::uint32_t g, const MsgId& id) {
  for (const ProcessId p : layout().members[g]) {
    ShardedKvNode* n = node(p);
    if (n == nullptr || !n->stack(g).ab().is_delivered(id)) return false;
  }
  return true;
}

bool ShardedCluster::await_quiesced(Duration timeout) {
  return sim_.run_until_pred(
      [&] {
        for (ProcessId p = 0; p < sim_.n(); ++p) {
          if (node(p) == nullptr) return false;
        }
        for (std::uint32_t g = 0; g < layout().group_count(); ++g) {
          std::uint64_t total = 0;
          bool first = true;
          for (const ProcessId p : layout().members[g]) {
            auto& ab = node(p)->stack(g).ab();
            if (ab.unordered_size() != 0) return false;
            if (first) {
              total = ab.agreed().total();
              first = false;
            } else if (ab.agreed().total() != total) {
              return false;
            }
          }
        }
        // Every delivered cross-shard hold must also have applied: a
        // non-empty pending queue means a pair is still waiting on its
        // partner (possibly on a repair re-broadcast still in flight).
        for (ProcessId p = 0; p < sim_.n(); ++p) {
          if (!node(p)->drained()) return false;
        }
        return true;
      },
      sim_.now() + timeout);
}

std::uint64_t ShardedCluster::shard_digest(std::uint32_t g) {
  std::uint64_t digest = 0;
  bool first = true;
  for (const ProcessId p : layout().members[g]) {
    ShardedKvNode* n = node(p);
    ABCAST_CHECK_MSG(n != nullptr, "shard_digest with a down replica");
    const std::uint64_t d = n->shard(g).digest();
    if (first) {
      digest = d;
      first = false;
    } else {
      ABCAST_CHECK_MSG(d == digest, "shard replicas diverged");
    }
  }
  return digest;
}

std::uint64_t ShardedCluster::aggregate_delivered() {
  std::uint64_t total = 0;
  for (std::uint32_t g = 0; g < layout().group_count(); ++g) {
    const ProcessId p = layout().members[g].front();
    ShardedKvNode* n = node(p);
    ABCAST_CHECK(n != nullptr);
    total += n->stack(g).ab().agreed().total();
  }
  return total;
}

std::vector<obs::TraceEvent> ShardedCluster::collect_trace() {
  std::vector<obs::TraceEvent> merged;
  for (ProcessId p = 0; p < sim_.n(); ++p) {
    auto* rec = sim_.host(p).tracer();
    ABCAST_CHECK_MSG(rec != nullptr,
                     "collect_trace requires sim.trace_capacity > 0");
    auto events = rec->events();
    merged.insert(merged.end(), events.begin(), events.end());
  }
  return merged;
}

std::uint64_t ShardedCluster::trace_dropped() {
  std::uint64_t dropped = 0;
  for (ProcessId p = 0; p < sim_.n(); ++p) {
    if (auto* rec = sim_.host(p).tracer()) dropped += rec->dropped();
  }
  return dropped;
}

}  // namespace abcast::group
