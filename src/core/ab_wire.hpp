// Wire formats for the Atomic Broadcast layer's full-set gossip
// (MsgType::kAbGossip) and chunked state transfer (MsgType::kAbStateChunk)
// payloads.
//
// Digest-mode gossip (kAbGossipDigest) lives in core/gossip_wire.hpp next to
// its copy-free encoder and delta planner. Keeping every layout in a *_wire
// header gives each payload exactly one definition site and makes it
// reachable from tests/wire_roundtrip_test.cpp — tools/ablint enforces both
// (wire-tag homes, registered round-trip tests).
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.hpp"
#include "core/agreed_log.hpp"
#include "core/app_msg.hpp"

namespace abcast::core {

/// Full-set gossip datagram (Options::digest_gossip == false): the sender's
/// round, delivered count, and its Unordered set (as much of it as fits).
struct GossipMsg {
  std::uint64_t k = 0;
  /// Local delivered count — advertised so peers can trim state transfers
  /// to the missing tail (§5.3 optimization).
  std::uint64_t total = 0;
  std::vector<AppMsg> unordered;

  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(total);
    w.vec(unordered, [](BufWriter& ww, const AppMsg& m) { m.encode(ww); });
  }
  static GossipMsg decode(BufReader& r) {
    GossipMsg m;
    m.k = r.u64();
    m.total = r.u64();
    m.unordered =
        r.vec<AppMsg>([](BufReader& rr) { return AppMsg::decode(rr); });
    return m;
  }
};

/// Encoded size of a full-set gossip datagram's k, total and unordered count.
inline std::size_t gossip_header_bytes() { return 8 + 8 + 4; }

/// One self-contained chunk of a §5.3 catch-up session (replaces the
/// retired one-shot StateMsg, whose whole-AgreedLog payload could exceed
/// the transport's 64 KiB frame limit and be silently dropped forever).
///
/// A session has two phases. The snapshot phase (only when the sender's
/// prefix is folded into an application checkpoint the recipient predates)
/// streams the encoded AppCheckpoint as byte slices: `offset` is the byte
/// offset of `data` within the `snap_size`-byte encoding, `snap_total` the
/// prefix count the snapshot covers (its version — a receiver staging bytes
/// of an older snapshot restarts when a newer one appears). The tail phase
/// streams the explicit suffix: `msgs` is the contiguous run of the global
/// delivery sequence starting at position `offset`; only a chunk with
/// `final_chunk` set advances the receiver's round to k+1, so losing the
/// last chunk leaves the receiver visibly lagging and the session resumes.
struct StateChunkMsg {
  std::uint64_t k = 0;  // sender's round minus one (paper Fig. 3, line d)
  bool snapshot = false;
  /// Snapshot phase: byte offset of `data`. Tail phase: absolute sequence
  /// position of msgs.front().
  std::uint64_t offset = 0;
  // Snapshot-phase fields.
  std::uint64_t snap_total = 0;  // prefix count covered == snapshot version
  std::uint64_t snap_size = 0;   // total encoded snapshot size in bytes
  Bytes data;
  // Tail-phase fields.
  bool final_chunk = false;
  std::vector<AppMsg> msgs;

  void encode(BufWriter& w) const {
    w.u64(k);
    w.boolean(snapshot);
    w.u64(offset);
    if (snapshot) {
      w.u64(snap_total);
      w.u64(snap_size);
      w.bytes(data);
    } else {
      w.boolean(final_chunk);
      w.vec(msgs, [](BufWriter& ww, const AppMsg& m) { m.encode(ww); });
    }
  }
  static StateChunkMsg decode(BufReader& r) {
    StateChunkMsg m;
    m.k = r.u64();
    m.snapshot = r.boolean();
    m.offset = r.u64();
    if (m.snapshot) {
      m.snap_total = r.u64();
      m.snap_size = r.u64();
      m.data = r.bytes();
    } else {
      m.final_chunk = r.boolean();
      m.msgs = r.vec<AppMsg>([](BufReader& rr) { return AppMsg::decode(rr); });
    }
    return m;
  }
};

/// Encoded size of a tail chunk's fixed fields (k, snapshot, offset,
/// final_chunk, msgs count). Used to size tail chunks to
/// Env::max_datagram_bytes(), mirroring digest_header_bytes for deltas.
inline std::size_t state_chunk_header_bytes() { return 8 + 1 + 8 + 1 + 4; }

/// Encoded size of a snapshot chunk's fixed fields (k, snapshot, offset,
/// snap_total, snap_size, data length prefix); the slice fills the datagram.
inline std::size_t state_snap_header_bytes() { return 8 + 1 + 8 + 8 + 8 + 4; }

}  // namespace abcast::core
