// The Agreed queue (paper Fig. 2), optionally rooted in an application
// checkpoint (paper §5.2).
//
// Logically every process's delivery sequence is a prefix of one global
// sequence; AgreedLog represents the local prefix as
//
//     [application checkpoint (state, VC, count)] ++ [explicit suffix]
//
// where the checkpoint part is absent until compact() is first called.
// Only the (k, Agreed) checkpoint record (§5.1) and the §5.3 tail chunks
// read the explicit suffix; without them (Options::basic(), Fig. 2) the log
// only counts it, so its memory does not grow with history.
// Duplicate suppression is by vector clock: a message decided again in a
// later round (possible when a batch is re-proposed by a process that
// missed the earlier decision) is skipped, deterministically at every
// process, because the same batches arrive in the same round order
// everywhere and the in-batch order is fixed. The clock is per-incarnation
// (see vector_clock.hpp), so ordering a recovered sender's new-incarnation
// root never suppresses its previous incarnation's undelivered messages.
#pragma once

#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "core/app_msg.hpp"
#include "core/vector_clock.hpp"

namespace abcast::core {

/// An application-level checkpoint: opaque state, the vector clock of the
/// prefix it contains, and that prefix's length (for position accounting).
struct AppCheckpoint {
  Bytes state;
  VectorClock vc;
  std::uint64_t count = 0;

  void encode(BufWriter& w) const {
    w.bytes(state);
    vc.encode(w);
    w.u64(count);
  }
  static AppCheckpoint decode(BufReader& r) {
    AppCheckpoint c;
    c.state = r.bytes();
    c.vc = VectorClock::decode(r);
    c.count = r.u64();
    return c;
  }
};

class AgreedLog {
 public:
  AgreedLog() = default;
  /// `keep_suffix` = false makes the log count its explicit suffix instead
  /// of holding it: suffix() stays empty and encode() refuses.
  explicit AgreedLog(std::uint32_t n, bool keep_suffix = true)
      : keep_suffix_(keep_suffix), vc_(n) {}

  /// Appends one decided batch. The batch is sorted by the deterministic
  /// rule and filtered against the vector clock; the messages actually
  /// appended (i.e., newly delivered) are returned in delivery order.
  std::vector<AppMsg> append(std::vector<AppMsg> batch);

  /// Appends a segment of the global delivery sequence AS GIVEN (no
  /// re-sorting — the segment spans multiple rounds, so it is not MsgId-
  /// sorted), still filtering already-contained messages. Used by the
  /// tail chunks of §5.3 state transfers. Returns the newly appended
  /// messages in order.
  std::vector<AppMsg> append_sequence(const std::vector<AppMsg>& segment);

  /// True if `id` is in this prefix (explicitly or inside the checkpoint).
  bool contains(const MsgId& id) const { return vc_.covers(id); }

  /// Replaces the suffix with an application checkpoint containing it
  /// (paper Fig. 4, line b). `state` comes from the A-checkpoint upcall.
  void compact(Bytes state);

  /// Replaces this whole prefix with a peer's application checkpoint
  /// (chunked §5.3 state transfer, snapshot phase). The caller must have
  /// verified the checkpoint strictly extends this prefix
  /// (`ckpt.count > total()`); the suffix is discarded because the
  /// checkpoint's clock covers it.
  void reset_to_base(AppCheckpoint ckpt);

  /// Total messages in the prefix (checkpoint count + suffix length).
  std::uint64_t total() const { return total_; }

  /// Messages folded into the checkpoint part (0 until compact()).
  std::uint64_t base_count() const { return base_count_; }

  const VectorClock& vc() const { return vc_; }
  const std::optional<AppCheckpoint>& base() const { return base_; }
  /// The explicit suffix; empty unless the log keeps it.
  const std::vector<AppMsg>& suffix() const { return suffix_; }
  std::uint64_t skipped_duplicates() const { return skipped_; }

  /// Requires a log that keeps its suffix; decode() returns one.
  void encode(BufWriter& w) const;
  static AgreedLog decode(BufReader& r);

 private:
  /// Appends one newly delivered message to the suffix.
  void push(const AppMsg& m);

  bool keep_suffix_ = true;
  std::optional<AppCheckpoint> base_;
  std::uint64_t base_count_ = 0;
  std::uint64_t total_ = 0;
  std::vector<AppMsg> suffix_;
  VectorClock vc_;
  std::uint64_t skipped_ = 0;
};

}  // namespace abcast::core
