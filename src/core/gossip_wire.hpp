// Wire format and delta planning for digest-mode gossip
// (MsgType::kAbGossipDigest). One encoder serves both the struct path
// (DigestMsg::encode, used by tests and make_wire) and the copy-free path
// (make_digest_wire, which references planned AppMsgs in place) — the
// layouts cannot drift because they are the same function.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/codec.hpp"
#include "common/types.hpp"
#include "core/app_msg.hpp"
#include "env/wire.hpp"

namespace abcast::core {

/// Digest-mode gossip datagram. A periodic tick sends it with an empty
/// `msgs` — (k, total, cover) is the whole anti-entropy advertisement, a few
/// bytes per sender regardless of backlog. A delta reply or an eager push
/// carries the missing per-sender suffixes in `msgs`, each suffix in seq
/// order so the receiver's contiguity guard can accept it chain-link by
/// chain-link.
struct DigestMsg {
  std::uint64_t k = 0;
  std::uint64_t total = 0;
  /// True on pull requests: "compare my cover against yours and send me a
  /// delta". Replies set it only when the replier itself lacks coverage, so
  /// an exchange terminates as soon as both sides are even.
  bool want_reply = false;
  /// Catch-up session acks (§5.3 chunked state transfer), folded into the
  /// digest so chunk-loss recovery needs no extra message type: the version
  /// (prefix count) of the checkpoint snapshot this process is staging and
  /// how many contiguous bytes of it have landed. Zero when no snapshot is
  /// in flight; the tail-phase ack is `total` itself.
  std::uint64_t ack_snap_total = 0;
  std::uint64_t ack_snap_bytes = 0;
  std::vector<std::uint64_t> cover;  // per-sender coverage, size = group
  std::vector<AppMsg> msgs;          // delta payload (empty on pure digests)

  void encode(BufWriter& w) const;
  static DigestMsg decode(BufReader& r) {
    DigestMsg m;
    m.k = r.u64();
    m.total = r.u64();
    m.want_reply = r.boolean();
    m.ack_snap_total = r.u64();
    m.ack_snap_bytes = r.u64();
    m.cover = r.vec<std::uint64_t>([](BufReader& rr) { return rr.u64(); });
    m.msgs = r.vec<AppMsg>([](BufReader& rr) { return AppMsg::decode(rr); });
    return m;
  }
};

/// The one true kAbGossipDigest payload layout. `msgs` are referenced in
/// place (never copied into a DigestMsg) so the delta send path stays
/// copy-free.
inline void encode_digest_payload(BufWriter& w, std::uint64_t k,
                                  std::uint64_t total, bool want_reply,
                                  const std::vector<std::uint64_t>& cover,
                                  const std::vector<const AppMsg*>& msgs,
                                  std::uint64_t ack_snap_total = 0,
                                  std::uint64_t ack_snap_bytes = 0) {
  w.u64(k);
  w.u64(total);
  w.boolean(want_reply);
  w.u64(ack_snap_total);
  w.u64(ack_snap_bytes);
  w.vec(cover, [](BufWriter& ww, std::uint64_t c) { ww.u64(c); });
  w.u32(checked_u32(msgs.size()));
  for (const auto* m : msgs) m->encode(w);
}

inline void DigestMsg::encode(BufWriter& w) const {
  std::vector<const AppMsg*> refs;
  refs.reserve(msgs.size());
  for (const auto& m : msgs) refs.push_back(&m);
  encode_digest_payload(w, k, total, want_reply, cover, refs, ack_snap_total,
                        ack_snap_bytes);
}

/// Encoded size of everything in a digest datagram except the delta
/// messages themselves (k, total, want_reply, snapshot acks, cover, msgs
/// count). Used to size delta chunks to Env::max_datagram_bytes().
inline std::size_t digest_header_bytes(std::size_t group_size) {
  return 8 + 8 + 1 + 16 + (4 + 8 * group_size) + 4;
}

/// Encoded size of one delta entry: msg_id (12) + payload length prefix (4)
/// + payload.
inline std::size_t delta_entry_bytes(const AppMsg& m) {
  return 16 + m.payload.size();
}

inline Wire make_digest_wire(std::uint64_t k, std::uint64_t total,
                             bool want_reply,
                             const std::vector<std::uint64_t>& cover,
                             const std::vector<const AppMsg*>& msgs,
                             std::uint64_t ack_snap_total = 0,
                             std::uint64_t ack_snap_bytes = 0) {
  BufWriter w;
  encode_digest_payload(w, k, total, want_reply, cover, msgs, ack_snap_total,
                        ack_snap_bytes);
  return Wire{MsgType::kAbGossipDigest, std::move(w).take()};
}

/// The suffixes of our per-sender unordered chains that a peer standing at
/// `peer_cover` can accept, in map (= sender, seq) order. The walk advances
/// a per-sender cursor from the peer's cover through our chain; anything
/// that would not extend the peer's coverage (it already has it, or a gap
/// separates it) is skipped — its guard would reject it anyway.
///
/// An incarnation root (counter == 1) that does not directly succeed the
/// cursor is planned only when the cursor has not moved past the peer's
/// DIGEST-CONFIRMED cover (`confirmed_cover`). From a confirmed cursor the
/// jump is exact: the peer itself advertised it holds nothing between
/// cursor and the root. From an optimistically bumped cursor it is not — an
/// in-flight or lost delta may hold the previous incarnation's durably
/// logged suffix, and a root-only datagram overtaking it would strand that
/// suffix at the peer (deliverable only via the original sender's own
/// proposals, thanks to per-incarnation supersession, but needlessly late).
/// Deferring the root until the next digest confirms the gap costs at most
/// one anti-entropy exchange.
inline std::vector<const AppMsg*> plan_delta(
    const std::map<MsgId, AppMsg>& unordered,
    const std::vector<std::uint64_t>& peer_cover,
    const std::vector<std::uint64_t>& confirmed_cover) {
  std::vector<const AppMsg*> plan;
  ProcessId cur = 0;
  bool have_cur = false;
  std::uint64_t cursor = ~0ULL;
  std::uint64_t confirmed = 0;
  for (const auto& [id, m] : unordered) {
    if (!have_cur || id.sender != cur) {
      cur = id.sender;
      have_cur = true;
      if (id.sender < peer_cover.size()) {
        cursor = peer_cover[id.sender];
        confirmed = id.sender < confirmed_cover.size()
                        ? confirmed_cover[id.sender]
                        : cursor;
      } else {
        cursor = ~0ULL;  // malformed sender: plan nothing for it
        confirmed = 0;
      }
    }
    if (!seq_extends(cursor, id.seq)) continue;
    if (id.seq != cursor + 1 && cursor > confirmed) continue;  // root jump
    plan.push_back(&m);
    cursor = id.seq;
  }
  return plan;
}

}  // namespace abcast::core
