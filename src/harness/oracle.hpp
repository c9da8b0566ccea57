// Correctness oracle for Atomic Broadcast runs.
//
// Lives OUTSIDE the simulated crash boundary: sinks are owned by the test,
// not by the protocol stacks, so the oracle observes every delivery across
// crashes and recoveries. It continuously checks, at every delivery:
//
//   * Total Order — every process's delivery sequence is a prefix of one
//     global sequence (the paper's Total Order property, checked in its
//     strongest prefix form);
//   * Integrity   — no message appears twice in the global sequence;
//   * Validity    — only broadcast messages are delivered.
//
// Termination is checked by the test at quiescence via all_delivered().
//
// Checkpoint semantics: the oracle sink's "application state" is just the
// delivery position plus a running hash of the delivered prefix, so
// install_checkpoint can verify that a restored/transferred state really
// corresponds to a prefix of the global sequence.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/delivery_sink.hpp"

namespace abcast::harness {

class Oracle;

/// Per-process DeliverySink wired into the oracle.
class OracleSink final : public core::DeliverySink {
 public:
  OracleSink(Oracle& oracle, ProcessId pid) : oracle_(oracle), pid_(pid) {}

  void deliver(const core::AppMsg& msg) override;
  Bytes take_checkpoint() override;
  void install_checkpoint(const Bytes& state) override;

 private:
  Oracle& oracle_;
  ProcessId pid_;
};

class Oracle {
 public:
  explicit Oracle(std::uint32_t n);

  /// Record that `id` was submitted to A-broadcast (validity set).
  void on_broadcast(const MsgId& id, TimePoint at);

  /// Must be called whenever process `pid`'s stack is (re)constructed:
  /// without a checkpoint the recovery replay re-delivers from scratch.
  void on_restart(ProcessId pid);

  /// Injected clock so latency stats use simulation time.
  void set_clock(std::function<TimePoint()> now) { now_ = std::move(now); }

  // ---- called by OracleSink ----------------------------------------------
  void on_deliver(ProcessId pid, const core::AppMsg& msg);
  Bytes checkpoint_state(ProcessId pid) const;
  void install_state(ProcessId pid, const Bytes& state);

  // ---- queries ------------------------------------------------------------
  /// The global total order observed so far.
  const std::vector<MsgId>& global_order() const { return global_; }

  /// Process `pid`'s current position in the global order.
  std::uint64_t position(ProcessId pid) const { return positions_[pid]; }

  bool delivered_globally(const MsgId& id) const {
    return delivered_set_.count(id) != 0;
  }

  /// True if every id has been delivered at every listed process.
  bool all_delivered(const std::vector<MsgId>& ids,
                     const std::vector<ProcessId>& at) const;

  /// Broadcast→first-global-delivery latencies of all delivered messages.
  const std::vector<Duration>& latencies() const { return latencies_; }

  /// The same latencies with their delivery timestamps, in global-order
  /// position order — the feed for windowed (SLO-style) quantiles.
  struct TimedLatency {
    TimePoint delivered_at = 0;
    Duration latency = 0;
  };
  const std::vector<TimedLatency>& timed_latencies() const {
    return timed_latencies_;
  }

  /// Throws InvariantViolation with diagnostics if any safety property has
  /// been violated; also called internally on every event.
  void check() const;

 private:
  std::uint64_t prefix_hash_at(std::uint64_t position) const;

  std::uint32_t n_;
  std::function<TimePoint()> now_;
  std::vector<MsgId> global_;
  std::vector<std::uint64_t> prefix_hash_;  // prefix_hash_[i] = hash of first i
  std::set<MsgId> delivered_set_;
  std::vector<std::uint64_t> positions_;
  std::map<MsgId, TimePoint> broadcast_time_;
  std::map<MsgId, TimePoint> first_delivery_;
  std::vector<Duration> latencies_;
  std::vector<TimedLatency> timed_latencies_;
};

}  // namespace abcast::harness
