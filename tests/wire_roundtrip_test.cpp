// Round-trip tests for every wire-message layout in core/, consensus/,
// group/ and multicast/.
//
// Each encode-bearing payload struct must round-trip byte-exactly through
// its own encode/decode pair, and each must be REGISTERED here with an
// `ablint:roundtrip <Name>` marker — tools/ablint cross-references the
// markers against the encode() definitions in src/core + src/consensus +
// src/group + src/multicast and fails the build when a payload has no
// registered round-trip test.

#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "consensus/consensus_wire.hpp"
#include "core/ab_wire.hpp"
#include "core/agreed_log.hpp"
#include "core/app_msg.hpp"
#include "core/gossip_wire.hpp"
#include "core/vector_clock.hpp"
#include "group/group_wire.hpp"
#include "harness/fixture.hpp"
#include "multicast/multicast_wire.hpp"

namespace abcast {
namespace {

using core::AgreedLog;
using core::AppCheckpoint;
using core::AppMsg;
using core::DigestMsg;
using core::GossipMsg;
using core::StateChunkMsg;
using core::VectorClock;
using namespace consensus_wire;

// Encodes `msg`, decodes it, re-encodes the decoded copy, and asserts the
// two encodings are byte-identical. Byte-equality of re-encodings is a
// stronger check than field-by-field comparison: it proves decode() consumed
// exactly what encode() produced, with no silently dropped or defaulted
// field.
template <typename T>
void expect_roundtrip(const T& msg) {
  const Bytes first = encode_to_bytes(msg);
  const T decoded = decode_from_bytes<T>(first);
  const Bytes second = encode_to_bytes(decoded);
  EXPECT_EQ(first, second);
}

AppMsg make_app_msg(std::uint32_t sender, std::uint64_t seq,
                    std::initializer_list<std::uint8_t> payload) {
  AppMsg m;
  m.id = MsgId{sender, seq};
  m.payload = Bytes(payload);
  return m;
}

// ablint:roundtrip AppMsg
TEST(WireRoundtrip, AppMsg) {
  expect_roundtrip(make_app_msg(2, 17, {1, 2, 3}));
  expect_roundtrip(make_app_msg(0, 0, {}));
}

// ablint:roundtrip VectorClock
TEST(WireRoundtrip, VectorClock) {
  VectorClock vc(3);
  vc.observe(MsgId{0, 1});
  vc.observe(MsgId{2, 5});
  expect_roundtrip(vc);
}

// ablint:roundtrip AppCheckpoint
TEST(WireRoundtrip, AppCheckpoint) {
  AppCheckpoint c;
  c.state = {9, 8, 7};
  c.vc = VectorClock(2);
  c.vc.observe(MsgId{1, 4});
  c.count = 11;
  expect_roundtrip(c);
}

// ablint:roundtrip AgreedLog
TEST(WireRoundtrip, AgreedLog) {
  AgreedLog log(2);
  log.append({make_app_msg(0, 1, {1}), make_app_msg(1, 1, {2})});
  expect_roundtrip(log);

  AgreedLog compacted(2);
  compacted.append({make_app_msg(0, 1, {1})});
  compacted.compact({42});
  compacted.append({make_app_msg(1, 1, {3, 4})});
  expect_roundtrip(compacted);
}

// ablint:roundtrip GossipMsg
TEST(WireRoundtrip, GossipMsg) {
  GossipMsg g;
  g.k = 7;
  g.total = 3;
  g.unordered = {make_app_msg(0, 1, {5}), make_app_msg(1, 2, {6, 7})};
  expect_roundtrip(g);
  expect_roundtrip(GossipMsg{});
}

// ablint:roundtrip StateChunkMsg
TEST(WireRoundtrip, StateChunkMsgSnapshotAndTail) {
  StateChunkMsg snap;
  snap.k = 4;
  snap.snapshot = true;
  snap.offset = 1024;
  snap.snap_total = 40;
  snap.snap_size = 4096;
  snap.data = {1, 2, 3, 4};
  expect_roundtrip(snap);

  StateChunkMsg tail;
  tail.k = 9;
  tail.offset = 5;
  tail.final_chunk = true;
  tail.msgs = {make_app_msg(1, 3, {8}), make_app_msg(0, 2, {})};
  expect_roundtrip(tail);
  expect_roundtrip(StateChunkMsg{});
}

// ablint:roundtrip DigestMsg
TEST(WireRoundtrip, DigestMsg) {
  DigestMsg d;
  d.k = 12;
  d.total = 6;
  d.want_reply = true;
  d.ack_snap_total = 40;
  d.ack_snap_bytes = 2048;
  d.cover = {3, 0, 9};
  d.msgs = {make_app_msg(2, 10, {1, 1})};
  expect_roundtrip(d);
  expect_roundtrip(DigestMsg{});
}

// ablint:roundtrip DecidedMsg
TEST(WireRoundtrip, DecidedMsg) {
  expect_roundtrip(DecidedMsg{3, Bytes{1, 2, 3}});
  expect_roundtrip(DecidedMsg{0, Bytes{}});
}

// ablint:roundtrip PrepareMsg
TEST(WireRoundtrip, PrepareMsg) { expect_roundtrip(PrepareMsg{1, 42}); }

// ablint:roundtrip PromiseMsg
TEST(WireRoundtrip, PromiseMsg) {
  expect_roundtrip(PromiseMsg{1, 42, 17, Bytes{9}});
  expect_roundtrip(PromiseMsg{2, 5, 0, Bytes{}});
}

// ablint:roundtrip AcceptMsg
TEST(WireRoundtrip, AcceptMsg) {
  expect_roundtrip(AcceptMsg{6, 13, Bytes{1, 2}});
}

// ablint:roundtrip AcceptedMsg
TEST(WireRoundtrip, AcceptedMsg) { expect_roundtrip(AcceptedMsg{6, 13}); }

// ablint:roundtrip NackMsg
TEST(WireRoundtrip, NackMsg) { expect_roundtrip(NackMsg{4, 99}); }

// ablint:roundtrip EstimateMsg
TEST(WireRoundtrip, EstimateMsg) {
  expect_roundtrip(EstimateMsg{2, 3, 1, Bytes{7, 7}});
}

// ablint:roundtrip NewEstimateMsg
TEST(WireRoundtrip, NewEstimateMsg) {
  expect_roundtrip(NewEstimateMsg{2, 3, Bytes{5}});
}

// ablint:roundtrip RoundMsg
TEST(WireRoundtrip, RoundMsg) { expect_roundtrip(RoundMsg{11, 4}); }

// A value of ConsensusService::max_value_bytes() rides every consensus
// message that carries one; PROMISE and ESTIMATE, the largest, fill the
// datagram exactly.
TEST(WireRoundtrip, ValueOfMaxValueBytesFitsEveryCarrier) {
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    SCOPED_TRACE(to_string(engine));
    harness::ClusterConfig cfg;
    cfg.sim.net.max_datagram_bytes = 1000;
    cfg.stack.engine = engine;
    harness::Cluster c(cfg);
    c.start_all();
    const std::size_t limit = cfg.sim.net.max_datagram_bytes;
    const Bytes v(c.stack(0)->consensus().max_value_bytes(), 0x5A);
    EXPECT_EQ(encode_to_bytes(PromiseMsg{1, 2, 3, v}).size(), limit);
    EXPECT_EQ(encode_to_bytes(EstimateMsg{1, 2, 3, v}).size(), limit);
    EXPECT_LE(encode_to_bytes(DecidedMsg{1, v}).size(), limit);
    EXPECT_LE(encode_to_bytes(AcceptMsg{1, 2, v}).size(), limit);
    EXPECT_LE(encode_to_bytes(NewEstimateMsg{1, 2, v}).size(), limit);
  }
}

// ablint:roundtrip GroupEnvelopeMsg
TEST(WireRoundtrip, GroupEnvelopeMsg) {
  group::GroupEnvelopeMsg env;
  env.group = 3;
  env.inner = Wire{MsgType::kAbGossip, Bytes{1, 2, 3, 4}};
  expect_roundtrip(env);
  expect_roundtrip(group::GroupEnvelopeMsg{});
}

// ablint:roundtrip ShardCommandMsg
TEST(WireRoundtrip, ShardCommandMsg) {
  expect_roundtrip(group::ShardCommandMsg::plain({9, 8, 7}));
  expect_roundtrip(group::ShardCommandMsg::pair(
      0xdeadbeefull, 1, {1, 1}, 4, {2, 2, 2}));
  Bytes enc = encode_to_bytes(group::ShardCommandMsg::plain({1}));
  enc[0] = 0x7f;  // unknown kind byte must raise CodecError, not UB
  EXPECT_THROW(decode_from_bytes<group::ShardCommandMsg>(enc), CodecError);
}

// ablint:roundtrip FillMsg
TEST(WireRoundtrip, FillMsg) {
  multicast::FillMsg fill;
  fill.id = MsgId{4, 0x100000002ull};
  fill.from_group = 1;
  fill.proposed_ts = 17;
  fill.dests = {0, 1, 3};
  fill.payload = Bytes{5, 6};
  expect_roundtrip(fill);
  expect_roundtrip(multicast::FillMsg{});
}

// A malformed buffer must raise CodecError, never read out of bounds.
TEST(WireRoundtrip, TruncatedBufferThrows) {
  GossipMsg g;
  g.k = 1;
  g.unordered = {make_app_msg(0, 1, {1, 2, 3})};
  Bytes enc = encode_to_bytes(g);
  enc.resize(enc.size() - 2);
  EXPECT_THROW(decode_from_bytes<GossipMsg>(enc), CodecError);
}

}  // namespace
}  // namespace abcast
