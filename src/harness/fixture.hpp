// One-call cluster setup: a Simulation running NodeStacks over OracleSinks,
// with broadcast/await conveniences. Shared by the test suite and by every
// bench binary.
#pragma once

#include <memory>
#include <vector>

#include "core/node_stack.hpp"
#include "harness/oracle.hpp"
#include "sim/simulation.hpp"

namespace abcast::harness {

struct ClusterConfig {
  sim::SimConfig sim;
  core::StackConfig stack;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// Starts every process at time zero.
  void start_all() { sim_.start_all(); }

  sim::Simulation& sim() { return sim_; }
  Oracle& oracle() { return oracle_; }
  const ClusterConfig& config() const { return config_; }

  /// The protocol stack of `p`, or nullptr while p is down.
  core::NodeStack* stack(ProcessId p);

  /// A-broadcasts a payload from `p` (p must be up) and registers the id
  /// with the oracle.
  MsgId broadcast(ProcessId p, Bytes payload = {});

  /// Outcome of a broadcast attempted against storage with an armed
  /// crash-point: `completed` is false when the call was interrupted by a
  /// crash. The id is registered with the oracle either way — an
  /// interrupted broadcast may still have been made durable (crash after
  /// the log op) and legitimately delivered later.
  struct BroadcastAttempt {
    MsgId id{};
    bool completed = false;
  };

  /// Like broadcast(), but tolerates the process crashing inside the call
  /// (SimulatedCrash / StorageIoError from an armed fault): the crash is
  /// converted into the usual host crash and reported in the result instead
  /// of unwinding into the test.
  BroadcastAttempt broadcast_may_crash(ProcessId p, Bytes payload = {});

  /// Broadcasts `count` small messages from `p`.
  std::vector<MsgId> broadcast_many(ProcessId p, std::size_t count);

  /// Runs until all ids are delivered at all listed processes (default: at
  /// every process). Returns false on timeout.
  bool await_delivery(const std::vector<MsgId>& ids,
                      std::vector<ProcessId> at = {},
                      Duration timeout = seconds(60));

  /// Runs until the cluster is quiesced: every process up, all delivery
  /// sequences equally long, and no unordered messages pending anywhere.
  /// (Crashed processes must be recovered by the caller first.) A quiesced
  /// end state is what makes the offline checker's strict Termination and
  /// Validity checks sound.
  bool await_quiesced(Duration timeout = seconds(60));

  /// Merged trace of every host (requires sim.trace_capacity > 0).
  std::vector<obs::TraceEvent> collect_trace();

  /// Events overwritten in any host's ring; a checker run should require 0.
  std::uint64_t trace_dropped();

  std::vector<ProcessId> all_processes() const;

  /// Sum of log operations (stable-storage puts) across processes, split
  /// by layer scope. Reads each host's storage stats.
  struct LogOps {
    std::uint64_t fd = 0;
    std::uint64_t consensus = 0;
    std::uint64_t ab = 0;
    std::uint64_t total = 0;
  };
  LogOps log_ops(ProcessId p);

 private:
  ClusterConfig config_;
  sim::Simulation sim_;
  Oracle oracle_;
  std::vector<std::unique_ptr<OracleSink>> sinks_;
};

}  // namespace abcast::harness
