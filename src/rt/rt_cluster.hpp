// Real-time runtime: the same protocol stacks driven by threads and the
// steady clock instead of the discrete-event simulator.
//
// Each process is an RtHost: a transport on the shared rt::EventLoop (one
// loop thread per host, timers, lifecycle, the flush-before-send barrier).
// Hosts exchange Wire datagrams over an in-process channel with
// configurable delay, loss and duplication — the same fair-lossy channel
// semantics as the simulator, at wall-clock speed. Crash/recovery destroys
// and rebuilds the stack exactly like the simulated host does.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "env/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/event_loop.hpp"
#include "storage/mem_storage.hpp"

namespace abcast::rt {

struct RtNetConfig {
  Duration delay_min = micros(100);
  Duration delay_max = millis(2);
  double drop_prob = 0.0;
  double dup_prob = 0.0;
};

struct RtConfig {
  std::uint32_t n = 3;
  std::uint64_t seed = 1;
  RtNetConfig net;
  /// Per-process stable storage; defaults to MemStableStorage (which here
  /// survives crash()/recover() but not process exit). For on-disk
  /// durability use SegmentedLogStorage: in SyncMode::kDeferred it syncs at
  /// each loop pass's barrier, before the pass's sends leave.
  std::function<std::unique_ptr<StableStorage>(ProcessId)> storage_factory;
  /// Per-host protocol trace ring capacity (events); 0 disables tracing.
  std::size_t trace_capacity = 0;
};

class RtCluster;

class RtHost final : public EventLoop {
 public:
  RtHost(RtCluster& cluster, ProcessId id);
  ~RtHost() override;

  // Env (called from the host thread only)
  /// Queues `msg`; the loop's barrier hands it to the channel, or to this
  /// host's node when `to` is self (never lost, never delayed).
  void send(ProcessId to, const Wire& msg) override;
  StableStorage& storage() override {
    return tracing_storage_ ? *tracing_storage_ : EventLoop::storage();
  }
  obs::TraceRecorder* tracer() override { return recorder_.get(); }
  obs::MetricsRegistry* metrics_registry() override;

  /// This host's protocol trace, or nullptr when trace_capacity == 0.
  /// TraceRecorder is internally synchronized, so any thread may read it.
  obs::TraceRecorder* recorder() { return recorder_.get(); }

 private:
  /// The in-process channel: each queued message to a peer is dropped,
  /// delayed and maybe duplicated per RtNetConfig, then scheduled on the
  /// peer's loop.
  void release_sends() override;
  void drop_sends() override { outbox_.clear(); }

  RtCluster& cluster_;
  std::unique_ptr<obs::TraceRecorder> recorder_;     // survives crashes
  std::unique_ptr<TracingStorage> tracing_storage_;  // wraps the storage
  std::vector<std::pair<ProcessId, Wire>> outbox_;   // host thread only
};

class RtCluster {
 public:
  explicit RtCluster(RtConfig config);
  ~RtCluster();

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  void set_node_factory(NodeFactory factory) { factory_ = std::move(factory); }

  void start_all();
  void start(ProcessId p);
  void crash(ProcessId p);
  void recover(ProcessId p);

  /// Blocks the calling thread until `pred` (evaluated on the caller, so it
  /// must be thread-safe) holds or the wall-clock timeout expires.
  bool wait_for(const std::function<bool()>& pred, Duration timeout,
                Duration poll = millis(5)) const;

  RtHost& host(ProcessId p);
  std::uint32_t n() const { return config_.n; }
  TimePoint now() const;

  /// Cluster-wide metrics registry (outside every crash boundary;
  /// thread-safe).
  obs::MetricsRegistry& metrics_registry() { return registry_; }

 private:
  friend class RtHost;

  RtConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  obs::MetricsRegistry registry_;
  NodeFactory factory_;
  std::vector<std::unique_ptr<RtHost>> hosts_;
};

}  // namespace abcast::rt
