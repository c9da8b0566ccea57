// Wire-tag home of the multi-group layer (see ablint rule wire-tag-home:
// kGroup* tags are pinned to this file).
//
// The group layer adds exactly ONE tag to the shared MsgType namespace: the
// envelope. Every datagram of every per-group protocol stack is wrapped as
//
//     Wire{kGroupEnvelope, encode(GroupEnvelopeMsg{group, inner})}
//
// by wrap() on the way out and opened by unwrap() on the way in (both in
// group_env.hpp), for the sharded KV and §6.4 multicast alike. Transports
// (sim, rt, UDP) see one opaque Wire per datagram and need no changes —
// the whole multiplexing lives inside the NodeApp crash boundary.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/codec.hpp"
#include "env/wire.hpp"

namespace abcast::group {

/// The group layer's envelope tag. The value 112 is reserved for it in the
/// MsgType enum (env/wire.hpp); the definition lives here, next to the
/// payload layout and the demux that owns it.
inline constexpr MsgType kGroupEnvelope = static_cast<MsgType>(112);

/// Bytes the envelope adds to its inner message's payload: the u32 group
/// plus the inner Wire's header.
inline constexpr std::size_t kEnvelopeBytes = 4 + kWireHeaderBytes;

/// Payload of a kGroupEnvelope datagram: which group's stack the inner
/// message belongs to, plus the inner message verbatim.
struct GroupEnvelopeMsg {
  std::uint32_t group = 0;
  Wire inner;

  void encode(BufWriter& w) const {
    w.u32(group);
    inner.encode(w);
  }
  static GroupEnvelopeMsg decode(BufReader& r) {
    GroupEnvelopeMsg m;
    m.group = r.u32();
    m.inner = Wire::decode(r);
    return m;
  }
};

/// Command carried as the AppMsg payload inside a group's Atomic Broadcast
/// by the sharded KV (src/group/sharded_kv.hpp). Not a datagram of its own —
/// it rides the ordered stream — but it crosses the wire inside proposals
/// and gossip, so it gets the same codec discipline and round-trip test.
struct ShardCommandMsg {
  enum class Kind : std::uint8_t {
    kPlain = 1,   // single-shard command: apply `cmd` on delivery
    kPairOp = 2,  // cross-shard atomic op (two-group deterministic commit)
  };

  Kind kind = Kind::kPlain;
  Bytes cmd;  // kPlain: the KvCommand bytes for this shard

  // kPairOp: the SAME payload is broadcast in both owning groups, so any
  // replica of either group can re-broadcast it into the lagging partner
  // group (hold repair) without reconstructing anything.
  std::uint64_t pair_id = 0;  // globally unique (derived from a MsgId)
  std::uint32_t group_a = 0;  // lower-numbered owning group
  std::uint32_t group_b = 0;  // higher-numbered owning group
  Bytes cmd_a;                // command applied by group_a's shard
  Bytes cmd_b;                // command applied by group_b's shard

  void encode(BufWriter& w) const {
    w.u8(static_cast<std::uint8_t>(kind));
    w.bytes(cmd);
    w.u64(pair_id);
    w.u32(group_a);
    w.u32(group_b);
    w.bytes(cmd_a);
    w.bytes(cmd_b);
  }
  static ShardCommandMsg decode(BufReader& r) {
    ShardCommandMsg m;
    const auto k = r.u8();
    if (k != 1 && k != 2) throw CodecError("malformed ShardCommandMsg kind");
    m.kind = static_cast<Kind>(k);
    m.cmd = r.bytes();
    m.pair_id = r.u64();
    m.group_a = r.u32();
    m.group_b = r.u32();
    m.cmd_a = r.bytes();
    m.cmd_b = r.bytes();
    return m;
  }

  static ShardCommandMsg plain(Bytes command) {
    ShardCommandMsg m;
    m.kind = Kind::kPlain;
    m.cmd = std::move(command);
    return m;
  }
  static ShardCommandMsg pair(std::uint64_t pair_id, std::uint32_t group_a,
                              Bytes cmd_a, std::uint32_t group_b,
                              Bytes cmd_b) {
    ShardCommandMsg m;
    m.kind = Kind::kPairOp;
    m.pair_id = pair_id;
    m.group_a = group_a;
    m.group_b = group_b;
    m.cmd_a = std::move(cmd_a);
    m.cmd_b = std::move(cmd_b);
    return m;
  }
};

}  // namespace abcast::group
