// Uniform Consensus in the crash-recovery model (paper §3.2–§3.5).
//
// The Atomic Broadcast layer uses Consensus strictly as a black box through
// this interface, mirroring Figure 1 of the paper:
//
//   propose(k, value)  — propose `value` for the k-th Consensus instance.
//                        Idempotent; the *first* operation is logging the
//                        proposal to stable storage, so that after a crash
//                        the process always proposes the same value to the
//                        same instance (lemma P4, §4.3).
//   decision(k)        — the locally-known decision for instance k, if any.
//   decided callback   — fires once per instance when a decision first
//                        becomes known in this incarnation (lemma P5: the
//                        value is the same across re-executions).
//
// Properties (paper §3.4): Termination (every good process that proposes —
// or that participated in a quorum — eventually decides), Uniform Validity,
// and Uniform Agreement (no two processes, good or bad, decide differently).
//
// Once an instance decides, its value is the only thing read back about it
// (Fig. 2's replay). So a service holds proposal and engine state only for
// undecided instances; a decided one keeps just its logged value, read
// back from the log once it is older than a small cache of recent ones.
//
// Channels are fair-lossy (§3.1): a decider pushes each decision to every
// peer once, unacked, and whoever misses it pulls it. (a) Any message about
// a decided instance is answered with the decision; (b) offer_decisions
// serves a peer the upper layer sees lagging. Termination assumes every
// good process proposes to every instance it learns of, as Atomic
// Broadcast does (with an empty batch if need be).
//
// Two interchangeable engines are provided, demonstrating the paper's
// consensus-agnosticism:
//   * PaxosEngine — Synod with a leader hint; acceptor state logged.
//   * CoordEngine — rotating-coordinator (Chandra-Toueg ◇S style adapted to
//     crash-recovery à la Aguilera-Chen-Toueg); estimate adoptions logged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/relaxed_counter.hpp"
#include "common/types.hpp"
#include "env/env.hpp"
#include "env/stable_storage.hpp"
#include "fd/leader_oracle.hpp"

namespace abcast {

using InstanceId = std::uint64_t;

/// Engine-agnostic counters for experiments.
struct ConsensusMetrics {
  RelaxedU64 proposals;          // distinct instances proposed to
  RelaxedU64 decided_local;      // instances this process decided
  RelaxedU64 decided_learned;    // decisions learned from peers
  RelaxedU64 attempts;           // ballots (Paxos) or rounds (Coord)
  /// Stored records found torn/corrupt during recovery and discarded.
  RelaxedU64 corrupt_records;
  /// Instances whose engine-private acceptor state was damaged: the process
  /// stops acting as an acceptor for them (amnesia containment) until it
  /// learns the decision from peers.
  RelaxedU64 quarantined;
};

using DecidedCallback =
    std::function<void(InstanceId, const Bytes& value)>;

class ConsensusService {
 public:
  virtual ~ConsensusService() = default;

  ConsensusService() = default;
  ConsensusService(const ConsensusService&) = delete;
  ConsensusService& operator=(const ConsensusService&) = delete;

  /// Loads persistent state and starts the driver. Call exactly once, after
  /// set_decided_callback. Instances with a logged proposal and no decision
  /// resume automatically. `incarnation` is the process's incarnation number
  /// (1 on its first start, never repeated; AtomicBroadcast::start takes the
  /// same one): an engine may take shortcuts that are safe only while no
  /// earlier incarnation can have acted, such as Paxos skipping phase 1 of
  /// ballot 1.
  virtual void start(std::uint64_t incarnation) = 0;

  /// See file header. The value actually used is the first one ever logged
  /// for `k` by this process; a different `value` on re-invocation is
  /// ignored (idempotence across recoveries).
  virtual void propose(InstanceId k, const Bytes& value) = 0;

  /// The largest value propose() takes (it throws above): one whose every
  /// carrying message fits a datagram of Env::max_datagram_bytes().
  virtual std::size_t max_value_bytes() const = 0;

  /// Locally-known decision for `k` (recent cache or decision log), if any.
  virtual std::optional<Bytes> decision(InstanceId k) = 0;

  virtual void set_decided_callback(DecidedCallback cb) = 0;

  /// True if this process has (durably) proposed to instance `k` and `k`
  /// is still undecided: a decided instance keeps only its decision. The
  /// sequencer proposes to its current round only while this is false.
  virtual bool proposed(InstanceId k) const = 0;

  /// True when a decision for `k` is locally known — a cheap probe (no
  /// value copy) the sequencer uses to skip proposing to a round whose
  /// outcome is already fixed.
  virtual bool decided(InstanceId k) const = 0;

  /// Pushes up to `max` locally-known decisions for instances >= from_k to
  /// `to`: how a peer the upper layer sees lagging learns decisions whose
  /// one-shot push it missed.
  virtual void offer_decisions(ProcessId to, InstanceId from_k,
                               std::uint32_t max) = 0;

  /// Durably discards all records (proposal, decision, engine state) of
  /// instances below `k`, and stops participating in them: messages about
  /// truncated instances are ignored (and reported through the obsolete
  /// callback so the upper layer can ship a state transfer instead). The
  /// caller promises it has applied every decision below `k` and has
  /// checkpointed the result — the paper's §5.1/§5.2 log truncation.
  virtual void truncate_below(InstanceId k) = 0;

  /// Instances below this are truncated (0 = nothing truncated).
  virtual InstanceId low_water() const = 0;

  /// Invoked when a peer sends us traffic about a truncated instance —
  /// the signal that `from` lags behind our checkpoint.
  virtual void set_obsolete_callback(
      std::function<void(ProcessId from, InstanceId k)> cb) = 0;

  /// Message routing: true for MsgTypes owned by this engine.
  virtual bool handles(MsgType type) const = 0;
  virtual void on_message(ProcessId from, const Wire& msg) = 0;

  /// Log-operation accounting for this layer (scope "cons/").
  virtual const StorageStats& storage_stats() const = 0;

  virtual const ConsensusMetrics& metrics() const = 0;

  /// Instances the engine holds state for: the undecided ones it has
  /// proposed to, heard of, or reloaded. Decided instances leave at once.
  virtual std::size_t live_instances() const = 0;
};

enum class ConsensusKind { kPaxos, kCoord };

/// Builds an engine. `oracle` must outlive the engine.
std::unique_ptr<ConsensusService> make_consensus(ConsensusKind kind, Env& env,
                                                 const LeaderOracle& oracle);

const char* to_string(ConsensusKind kind);

}  // namespace abcast
