// Offline checker for merged per-node protocol traces.
//
// Audits the paper's Atomic Broadcast properties (§3) on the artifacts of
// any run — including the rt/UDP cluster, where the in-process oracle cannot
// see inside processes:
//
//   * Integrity      — no node delivers the same message twice (within an
//                      incarnation; recovery replay legitimately re-delivers
//                      at the SAME position) nor at two different positions.
//   * Total Order    — the global position -> message mapping is a function,
//                      and each message occupies one global position.
//   * Validity       — a broadcast message is eventually delivered; if the
//                      broadcaster may have crashed before the message
//                      reached anyone this degrades to a warning (the paper
//                      only obliges processes that stay up).
//   * Termination    — under require_quiesced, every node that is up at the
//                      end of the trace has reached the global maximum
//                      position.
//   * LogMinimality  — the basic protocol (Fig. 2) performs no AB-layer log
//                      writes, and every consensus instance logs its
//                      proposal at most once per incarnation.
//
// Position continuity is also enforced: within an incarnation, delivery
// positions advance by exactly one, except for a single jump immediately
// after recovery replay or a state-transfer adoption.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace abcast::obs {

struct CheckOptions {
  /// Basic protocol (Fig. 2): any "ab/" log write is a violation.
  bool basic_protocol = false;
  /// The trace ends in a quiesced state (all nodes up, nothing in flight):
  /// enables the strict Termination and Validity checks.
  bool require_quiesced = false;
  /// When non-zero: every state-transfer chunk send (kStateTransfer with
  /// detail send_chunk/send_snap, whose arg is the wire payload size) must
  /// stay at or below this many bytes, or a "StateBound" violation is
  /// reported. Set it to the stacks' Env::max_datagram_bytes() to prove no
  /// catch-up datagram could have been dropped by the transport's limit.
  std::size_t max_state_chunk_bytes = 0;
};

struct Violation {
  std::string property;  // "Integrity", "TotalOrder", ...
  ProcessId node = kNoProcess;
  std::uint64_t seq = 0;  // seq of the offending event on that node
  std::string message;
};

std::string to_string(const Violation& v);

struct CheckStats {
  std::size_t nodes = 0;
  std::size_t events = 0;
  std::size_t broadcasts = 0;
  std::size_t delivers = 0;
  std::size_t unique_delivered = 0;
  std::size_t decides = 0;
  std::size_t log_writes = 0;
  std::uint64_t max_position = 0;  // delivered positions span [0, max_position)
};

struct CheckReport {
  std::vector<Violation> violations;
  std::vector<std::string> warnings;
  CheckStats stats;

  bool ok() const { return violations.empty(); }
};

/// Checks a merged trace (events from any number of nodes, in any order;
/// per-node order is recovered from the recorder-stamped seq).
CheckReport check_trace(const std::vector<TraceEvent>& events,
                        const CheckOptions& options = {});

/// Multi-group variant for sharded runs (DESIGN.md §13): splits the merged
/// trace into per-group sub-traces by the event's group tag (tag g+1 marks
/// group g; tag 0 is a host event), replays host lifecycle events
/// (crash/recover) into every group, routes host-recorded log writes by
/// their "g<gid>/" storage-scope prefix (stripped before matching), and
/// runs check_trace on each group — every group must independently satisfy
/// the paper's properties. Diagnostics are prefixed with "g<gid>".
///
/// On top, a CrossShard rule audits two-group atomic ops (kCrossShard
/// events; arg = pair id, k = partner group, detail = hold|apply):
///   * every apply at a (node, group) was preceded by a hold of the same
///     pair there (effects only at the merge point);
///   * all events of one pair agree on its owner-group set;
///   * under require_quiesced, a pair with any hold or apply anywhere has
///     holds AND applies in BOTH owning groups — both effects became
///     visible, or (had every holder crashed unrecovered) neither would.
CheckReport check_sharded_trace(const std::vector<TraceEvent>& events,
                                std::uint32_t n_groups,
                                const CheckOptions& options = {});

}  // namespace abcast::obs
