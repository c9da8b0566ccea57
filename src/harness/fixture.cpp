#include "harness/fixture.hpp"

#include "common/check.hpp"

namespace abcast::harness {

Cluster::Cluster(ClusterConfig config)
    : config_(config), sim_(config.sim), oracle_(config.sim.n) {
  oracle_.set_clock([this] { return sim_.now(); });
  sinks_.reserve(config_.sim.n);
  for (ProcessId p = 0; p < config_.sim.n; ++p) {
    sinks_.push_back(std::make_unique<OracleSink>(oracle_, p));
  }
  sim_.set_node_factory([this](Env& env) {
    const ProcessId pid = env.self();
    // A fresh incarnation restarts its delivery sequence (unless it
    // installs a checkpoint during recovery).
    oracle_.on_restart(pid);
    return std::make_unique<core::NodeStack>(env, config_.stack,
                                             *sinks_[pid]);
  });
}

core::NodeStack* Cluster::stack(ProcessId p) {
  // The factory above only ever creates NodeStacks.
  return static_cast<core::NodeStack*>(sim_.node(p));
}

MsgId Cluster::broadcast(ProcessId p, Bytes payload) {
  core::NodeStack* s = stack(p);
  ABCAST_CHECK_MSG(s != nullptr, "broadcast from a down process");
  const MsgId id = s->ab().broadcast(std::move(payload));
  oracle_.on_broadcast(id, sim_.now());
  return id;
}

Cluster::BroadcastAttempt Cluster::broadcast_may_crash(ProcessId p,
                                                       Bytes payload) {
  core::NodeStack* s = stack(p);
  ABCAST_CHECK_MSG(s != nullptr, "broadcast from a down process");
  BroadcastAttempt out;
  // Register the id BEFORE invoking broadcast: if the call crashes after
  // its log op, the message is durable and will be delivered on recovery —
  // the oracle must already know it to keep its Validity check sound.
  out.id = s->ab().next_broadcast_id();
  oracle_.on_broadcast(out.id, sim_.now());
  try {
    const MsgId actual = s->ab().broadcast(std::move(payload));
    ABCAST_CHECK(actual == out.id);
    out.completed = true;
  } catch (const SimulatedCrash&) {
    sim_.host(p).crash_from_storage_fault();
  } catch (const StorageIoError&) {
    sim_.host(p).crash_from_storage_fault();
  }
  return out;
}

std::vector<MsgId> Cluster::broadcast_many(ProcessId p, std::size_t count) {
  std::vector<MsgId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(broadcast(p));
  return ids;
}

bool Cluster::await_delivery(const std::vector<MsgId>& ids,
                             std::vector<ProcessId> at, Duration timeout) {
  if (at.empty()) at = all_processes();
  return sim_.run_until_pred(
      [&] { return oracle_.all_delivered(ids, at); },
      sim_.now() + timeout);
}

bool Cluster::await_quiesced(Duration timeout) {
  return sim_.run_until_pred(
      [&] {
        std::uint64_t total = 0;
        for (ProcessId p = 0; p < sim_.n(); ++p) {
          core::NodeStack* s = stack(p);
          if (s == nullptr) return false;
          if (s->ab().unordered_size() != 0) return false;
          if (p == 0) {
            total = s->ab().agreed().total();
          } else if (s->ab().agreed().total() != total) {
            return false;
          }
        }
        return true;
      },
      sim_.now() + timeout);
}

std::vector<obs::TraceEvent> Cluster::collect_trace() {
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

std::uint64_t Cluster::trace_dropped() {
  std::uint64_t dropped = 0;
  for (ProcessId p = 0; p < sim_.n(); ++p) {
    if (auto* rec = sim_.host(p).tracer()) dropped += rec->dropped();
  }
  return dropped;
}

std::vector<ProcessId> Cluster::all_processes() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < config_.sim.n; ++p) out.push_back(p);
  return out;
}

Cluster::LogOps Cluster::log_ops(ProcessId p) {
  // Per-scope counters live in the host-side storage so they survive
  // crashes; this requires the default MemStableStorage (behind the
  // fault-injection decorator).
  auto* mem = dynamic_cast<MemStableStorage*>(&sim_.host(p).raw_storage());
  ABCAST_CHECK_MSG(mem != nullptr,
                   "log_ops requires MemStableStorage-backed hosts");
  LogOps ops;
  ops.fd = mem->scope_stats("fd").put_ops;
  ops.consensus = mem->scope_stats("cons").put_ops;
  ops.ab = mem->scope_stats("ab").put_ops;
  ops.total = mem->stats().put_ops;
  return ops;
}

}  // namespace abcast::harness
