// Checkpoint vector clock (paper §5.2), per-incarnation.
//
// For every sender p the clock records the highest sequence number the
// delivery prefix contains from EACH incarnation of p (`tops_[p]`, ascending
// — seq order equals (incarnation, counter) order). A message is covered
// only when its OWN incarnation's top reaches it.
//
// Why not one number per sender: with Options::log_unordered a sender's
// broadcasts survive its crash in the durable Unordered set, so messages of
// incarnation i can still be awaiting delivery after the root of incarnation
// i+1 was decided (a lost delta plus an optimistic peer view is enough to
// order the root first — see DESIGN.md "Digest gossip"). A numeric
// `last >= seq` rule would mark that logged suffix superseded everywhere,
// silently violating Validity for a recovered-and-correct sender. Per-
// incarnation tops keep those messages deliverable: they stay uncovered
// until a later batch (re-proposed by the sender, which still holds them)
// actually orders them.
//
// Within one incarnation delivery IS monotone (gossip-chain contiguity plus
// the deterministic in-batch rule), so a single top per incarnation exactly
// describes the prefix, which is what lets an application checkpoint replace
// the explicit message log. Entries are never removed: a sender has one
// incarnation per recovery, so the list stays tiny.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "core/seq.hpp"

namespace abcast::core {

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::uint32_t n) : tops_(n) {}

  /// True if a message with this id is contained in the prefix this clock
  /// describes.
  bool covers(const MsgId& id) const {
    ABCAST_CHECK(id.sender < tops_.size());
    const auto& tops = tops_[id.sender];
    const auto it = incarnation_slot(tops, id.seq);
    return it != tops.end() && seq_incarnation(*it) == seq_incarnation(id.seq) &&
           *it >= id.seq;
  }

  /// Extends the prefix with `id`. Must advance within its incarnation: the
  /// caller filters non-advancing (duplicate/stale) ids with covers() first.
  /// Starting a NEW incarnation is always legal, even one older than the
  /// sender's newest — that is exactly the recovered-suffix case above.
  void observe(const MsgId& id) {
    ABCAST_CHECK(id.sender < tops_.size());
    auto& tops = tops_[id.sender];
    const auto it = incarnation_slot(tops, id.seq);
    if (it != tops.end() && seq_incarnation(*it) == seq_incarnation(id.seq)) {
      ABCAST_CHECK_MSG(id.seq > *it,
                       "vector clock must advance within an incarnation");
      *it = id.seq;
    } else {
      tops.insert(it, id.seq);
    }
  }

  /// The numerically highest seq observed from p (its newest incarnation's
  /// top), 0 if none. This is the frontier coverage digests advertise.
  std::uint64_t last_of(ProcessId p) const {
    ABCAST_CHECK(p < tops_.size());
    return tops_[p].empty() ? 0 : tops_[p].back();
  }

  std::uint32_t size() const { return checked_u32(tops_.size()); }

  friend bool operator==(const VectorClock&, const VectorClock&) = default;

  void encode(BufWriter& w) const {
    w.u32(size());
    for (const auto& tops : tops_) {
      w.vec(tops, [](BufWriter& ww, std::uint64_t v) { ww.u64(v); });
    }
  }
  static VectorClock decode(BufReader& r) {
    // Each per-sender entry is itself length-prefixed, so at least four
    // bytes must remain per claimed sender; validating through count()
    // keeps a hostile width from allocating billions of empty vectors.
    const auto n = r.count(sizeof(std::uint32_t));
    VectorClock vc(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      vc.tops_[i] = r.vec<std::uint64_t>([](BufReader& rr) { return rr.u64(); });
    }
    return vc;
  }

 private:
  /// First entry whose incarnation is >= seq's (tops are seq-sorted and
  /// counters are >= 1, so make_seq(inc, 0) is a strict lower bound for
  /// incarnation inc and above all of inc-1).
  static std::vector<std::uint64_t>::const_iterator incarnation_slot(
      const std::vector<std::uint64_t>& tops, std::uint64_t seq) {
    return std::lower_bound(tops.begin(), tops.end(),
                            make_seq(seq_incarnation(seq), 0));
  }
  static std::vector<std::uint64_t>::iterator incarnation_slot(
      std::vector<std::uint64_t>& tops, std::uint64_t seq) {
    return std::lower_bound(tops.begin(), tops.end(),
                            make_seq(seq_incarnation(seq), 0));
  }

  /// tops_[p]: per incarnation of p, the highest seq in the prefix;
  /// ascending, at most one entry per incarnation.
  std::vector<std::vector<std::uint64_t>> tops_;
};

}  // namespace abcast::core
