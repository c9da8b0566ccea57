// Structured protocol event tracing.
//
// Every process records a bounded ring of TraceEvents (the observability
// counterpart of the paper's event-based pseudocode): broadcasts, gossip,
// proposals, log operations, decisions, deliveries, checkpoints, state
// transfers and crash/recovery transitions. The recorder lives in the HOST
// (outside the crash boundary), so one trace spans every incarnation of a
// process — exactly what the offline checker (trace_check.hpp,
// tools/tracecheck) needs to audit the paper's properties after a run,
// including runs of the rt/UDP cluster where the in-process oracle cannot
// see inside processes.
//
// Traces export as JSONL (one event per line) and parse back losslessly, so
// per-node files from independent processes can be merged and checked.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace abcast::obs {

/// Protocol event taxonomy (see DESIGN.md "Observability").
enum class EventKind : std::uint8_t {
  kBroadcast,      // A-broadcast(m) invoked          msg=id, k=current round
  kGossipSend,     // gossip multisent                k=round, arg=|Unordered|
  kGossipRecv,     // gossip received                 k=sender round, arg=from
  kPropose,        // consensus proposal first logged k=instance, arg=crc32
  kLogWrite,       // stable-storage put completed    detail=key, arg=bytes
  kDecide,         // consensus decision learned      k=instance, arg=crc32,
                   //                                 detail=local|learned
  kDeliver,        // A-deliver(m)                    msg=id, k=round, arg=pos
  kCheckpoint,     // (k, Agreed) checkpoint          k, arg=total,
                   //                                 detail=take|load
  kStateTransfer,  // catch-up session chunk.
                   // Sends: detail=send_chunk|send_snap, arg=payload bytes
                   // (the offline checker bounds these, see CheckOptions::
                   // max_state_chunk_bytes). Adoptions: detail=adopt_chunk
                   // (tail applied, arg=new total) | adopt_snap (peer app
                   // checkpoint installed, arg=its count).
  kCrash,          // process crashed (host event)
  kRecoverBegin,   // recovery starting (host event)
  kRecoverEnd,     // recovery finished               arg=replayed rounds
  kLogLine,        // a kTrace-level log line routed here (detail=text)
  kCrossShard,     // cross-shard pair op transition  arg=pair id,
                   //                                 k=partner group,
                   //                                 detail=hold|apply
};

const char* to_string(EventKind kind);

/// Parses the to_string form back; returns false on unknown names.
bool event_kind_from_string(std::string_view s, EventKind& out);

struct TraceEvent {
  EventKind kind{};
  ProcessId node = kNoProcess;
  std::uint64_t seq = 0;  // per-node order, stamped by the recorder
  TimePoint t = 0;        // virtual (sim) or steady-clock (rt) time
  std::uint64_t k = 0;    // round / consensus instance where meaningful
  MsgId msg{};            // sender == kNoProcess means "no message"
  std::uint64_t arg = 0;  // kind-specific (see EventKind comments)
  std::uint32_t group = 0;  // AB group id in multi-group runs (0 otherwise)
  std::string detail;     // kind-specific (storage key, direction, text)

  bool has_msg() const { return msg.sender != kNoProcess; }
};

/// Bounded per-process ring buffer of TraceEvents. Oldest events are
/// overwritten once `capacity` is reached (dropped() counts them — a checker
/// run should assert it is zero, or treat the trace as truncated).
///
/// Thread-safe: record() and readers take an internal mutex, so the rt
/// runtime's host threads and an external snapshotter can share a recorder.
class TraceRecorder {
 public:
  TraceRecorder(ProcessId node, std::size_t capacity);
  virtual ~TraceRecorder() = default;

  ProcessId node() const { return node_; }
  std::size_t capacity() const { return capacity_; }

  /// Clock used to stamp events recorded without an explicit time
  /// (log_line()). Optional; unset means those events carry t = 0.
  void set_clock(std::function<TimePoint()> clock);

  /// Virtual so facades (GroupTaggedRecorder) can stamp extra context on
  /// events flowing out of a protocol stack that only sees `TraceRecorder*`.
  virtual void record(EventKind kind, TimePoint t, std::uint64_t k = 0,
                      MsgId msg = MsgId{}, std::uint64_t arg = 0,
                      std::string detail = {});

  /// record() plus an explicit group tag (multi-group stacks; see
  /// src/group/). Group 0 is the untagged default.
  void record_grouped(std::uint32_t group, EventKind kind, TimePoint t,
                      std::uint64_t k = 0, MsgId msg = MsgId{},
                      std::uint64_t arg = 0, std::string detail = {});

  /// Records a kLogLine event (the Logger's kTrace routing target).
  void log_line(std::string line);

  /// Events currently held, oldest first.
  std::vector<TraceEvent> events() const;

  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;
  void clear();

  /// Writes the held events as JSONL, one event per line.
  void write_jsonl(std::ostream& os) const;

 private:
  const ProcessId node_;
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::function<TimePoint()> clock_;
  std::vector<TraceEvent> ring_;  // grows to capacity_, then wraps
  std::size_t head_ = 0;          // next write slot once full
  std::uint64_t total_ = 0;       // lifetime events (seq source)
};

/// Facade that forwards every event to a parent recorder with a fixed group
/// tag. One per (node, group) in a multi-group stack: the per-group
/// NodeStack records through it unchanged, the parent ring keeps a single
/// per-node seq order across all groups, and the offline checker can split
/// the merged trace back into per-group sub-traces. The parent must outlive
/// the facade.
class GroupTaggedRecorder final : public TraceRecorder {
 public:
  GroupTaggedRecorder(TraceRecorder& parent, std::uint32_t group)
      : TraceRecorder(parent.node(), 1), parent_(parent), group_(group) {}

  std::uint32_t group() const { return group_; }

  void record(EventKind kind, TimePoint t, std::uint64_t k = 0,
              MsgId msg = MsgId{}, std::uint64_t arg = 0,
              std::string detail = {}) override {
    parent_.record_grouped(group_, kind, t, k, msg, arg, std::move(detail));
  }

 private:
  TraceRecorder& parent_;
  const std::uint32_t group_;
};

/// Serializes one event as a single JSON line (no trailing newline).
std::string event_to_json(const TraceEvent& e);

/// Parses JSONL produced by write_jsonl/event_to_json. Blank lines are
/// skipped. Throws CodecError (with a line number) on malformed input.
std::vector<TraceEvent> parse_trace_jsonl(std::istream& is);

/// Routes ABCAST_LOG(kTrace, ...) lines into `rec` as kLogLine events (and
/// enables the kTrace level regardless of the logger's threshold). Pass
/// nullptr to uninstall. The recorder must outlive the routing.
void route_trace_logs(TraceRecorder* rec);

}  // namespace abcast::obs
