// Wire layout of §6.4 multicast's one datagram of its own.
//
// PROPOSE and FINAL ride inside a group's Atomic Broadcast as AppMsg
// payloads; only the inter-group FILL crosses the network raw, as
// Wire{kMgFill, encode(FillMsg)}. MulticastService::on_message checks the
// decoded groups against the layout before anything reaches a group's order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace abcast::multicast {

/// Pushes one group's proposed timestamp for a multicast to another
/// destination group, with the multicast itself so a group that never saw
/// it can bootstrap it.
struct FillMsg {
  MsgId id;
  std::uint32_t from_group = 0;
  std::uint64_t proposed_ts = 0;
  std::vector<std::uint32_t> dests;
  Bytes payload;

  void encode(BufWriter& w) const {
    w.msg_id(id);
    w.u32(from_group);
    w.u64(proposed_ts);
    w.vec(dests, [](BufWriter& ww, std::uint32_t g) { ww.u32(g); });
    w.bytes(payload);
  }
  static FillMsg decode(BufReader& r) {
    FillMsg m;
    m.id = r.msg_id();
    m.from_group = r.u32();
    m.proposed_ts = r.u64();
    m.dests = r.vec<std::uint32_t>([](BufReader& rr) { return rr.u32(); });
    m.payload = r.bytes();
    return m;
  }
};

}  // namespace abcast::multicast
