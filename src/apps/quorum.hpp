// Quorum-based replica management over Atomic Broadcast (paper §6.3).
//
// The paper points to its companion report: "we show how to extend the
// Atomic Broadcast primitive to support the implementation of Quorum-based
// replica management in crash-recovery systems. The proposed technique
// makes a bridge between established results on Weighted Voting and recent
// results on the Consensus problem."
//
// This module reconstructs that bridge:
//
//  * The DATA path is classic Gifford weighted voting — no total order.
//    Each replica holds votes; a read gathers replies worth ≥ R votes and
//    returns the highest-versioned value; a write first reads a version
//    quorum, then installs (value, version+1) at replicas worth ≥ W votes,
//    with R + W > total votes guaranteeing intersection. Replicas log
//    accepted writes to stable storage before acking, so a quorum member
//    that crashes and recovers still holds what it acknowledged — the
//    crash-recovery requirement.
//  * The CONFIGURATION path (vote reassignment — the hard part of weighted
//    voting) goes through Atomic Broadcast: every replica installs the
//    same sequence of configurations, numbered by epoch. Data messages
//    carry the epoch; a replica in a newer epoch rejects stale operations,
//    and the coordinator restarts them under the new configuration. Total
//    order is exactly what makes "which configuration is current" a
//    well-defined question in an asynchronous crash-recovery system.
//
// Quorum intersection holds within an epoch by arithmetic, and across
// epochs because an operation completes entirely inside one epoch (stale
// replies are rejected), while AB gives all replicas the same epoch
// sequence.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/delivery_sink.hpp"
#include "core/node_stack.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast::apps {

/// A version is (counter, coordinator id): totally ordered, unique per
/// write.
struct QuorumVersion {
  std::uint64_t counter = 0;
  ProcessId writer = kNoProcess;

  friend auto operator<=>(const QuorumVersion&,
                          const QuorumVersion&) = default;
};

/// A voting configuration: per-replica vote weights plus read/write
/// thresholds. Valid iff read + write > total and write > total/2... —
/// validated by validate().
struct QuorumConfig {
  std::vector<std::uint32_t> votes;  // weight per replica
  std::uint32_t read_quorum = 0;     // R
  std::uint32_t write_quorum = 0;    // W

  std::uint32_t total_votes() const;
  void validate(std::uint32_t n) const;

  void encode(BufWriter& w) const;
  static QuorumConfig decode(BufReader& r);

  /// Equal votes of 1, majority thresholds — the unweighted default.
  static QuorumConfig uniform(std::uint32_t n);
};

struct QuorumMetrics {
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t stale_epoch_restarts = 0;
  std::uint64_t configs_installed = 0;
};

/// One replica of the quorum-replicated store, including the client-side
/// coordinator logic for operations submitted at this replica.
class QuorumReplicaNode final : public NodeApp {
 public:
  using ReadCallback =
      std::function<void(std::optional<std::string>, QuorumVersion)>;
  using WriteCallback = std::function<void()>;

  QuorumReplicaNode(Env& env, core::StackConfig stack_config,
                    QuorumConfig initial_config,
                    Duration retry_period = millis(40));

  void start(bool recovering) override;
  void on_message(ProcessId from, const Wire& msg) override;

  /// Reads `key` from a read quorum; the callback gets the
  /// highest-versioned value (nullopt if the key was never written).
  ///
  /// Callback lifetime: operations retry until a quorum is reachable, so a
  /// callback may fire arbitrarily late (or never, if this replica crashes
  /// first). Callbacks must OWN everything they capture.
  void read(std::string key, ReadCallback cb);

  /// Writes `key` through a version-read round and a write quorum.
  /// The callback fires when ≥ W votes acknowledged the install; the same
  /// lifetime rules as read() apply.
  void write(std::string key, std::string value, WriteCallback cb);

  /// Proposes a vote reassignment; installed (everywhere, in the same
  /// epoch order) via Atomic Broadcast.
  void propose_config(const QuorumConfig& config);

  /// This replica's locally stored version (not a quorum read).
  QuorumVersion local_version(const std::string& key) const;

  std::uint64_t epoch() const { return epoch_; }
  const QuorumConfig& config() const { return config_; }
  const QuorumMetrics& metrics() const { return metrics_; }
  core::NodeStack& stack() { return stack_; }

 private:
  struct Record {
    std::string value;
    QuorumVersion version;
  };

  /// In-flight coordinator operation (read, or the two phases of a write).
  struct Op {
    enum class Kind { kRead, kWriteReadPhase, kWriteInstallPhase };
    Kind kind = Kind::kRead;
    std::string key;
    std::string value;         // writes only
    std::uint64_t epoch = 0;   // the configuration this attempt runs in
    std::uint32_t votes_gathered = 0;
    std::set<ProcessId> replied;
    std::optional<std::string> best_value;
    QuorumVersion best_version;
    QuorumVersion install_version;  // install phase
    ReadCallback read_cb;
    WriteCallback write_cb;
  };

  // Configuration installation — the DeliverySink of the embedded stack.
  class ConfigSink final : public core::DeliverySink {
   public:
    explicit ConfigSink(QuorumReplicaNode& node) : node_(node) {}
    void deliver(const core::AppMsg& msg) override {
      node_.install_config(msg);
    }

   private:
    QuorumReplicaNode& node_;
  };

  void install_config(const core::AppMsg& msg);
  void start_op(std::uint64_t op_id);
  void restart_op(Op& op);
  void finish_read(Op& op);
  void finish_write_read_phase(std::uint64_t op_id, Op& op);
  void apply_local_write(const std::string& key, const std::string& value,
                         QuorumVersion version);
  void persist_record(const std::string& key, const Record& rec);
  void tick();

  Env& env_;
  ConfigSink sink_;
  core::NodeStack stack_;
  ScopedStorage storage_;
  Duration retry_period_;

  QuorumConfig config_;
  std::uint64_t epoch_ = 0;
  std::map<std::string, Record> store_;
  std::map<std::uint64_t, Op> ops_;
  std::uint64_t next_op_ = 1;
  QuorumMetrics metrics_;
};

}  // namespace abcast::apps
