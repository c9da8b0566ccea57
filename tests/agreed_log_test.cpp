// Unit tests for the Agreed queue representation: vector clock semantics,
// deterministic batch ordering, duplicate suppression, compaction,
// serialization — the machinery behind total order and §5.2 checkpoints.
#include <gtest/gtest.h>

#include "core/agreed_log.hpp"
#include "core/app_msg.hpp"
#include "core/vector_clock.hpp"

using namespace abcast;
using namespace abcast::core;

namespace {

AppMsg msg(ProcessId sender, std::uint64_t seq, std::string body = "") {
  AppMsg m;
  m.id = MsgId{sender, seq};
  m.payload = Bytes(body.begin(), body.end());
  return m;
}

std::vector<MsgId> ids_of(const std::vector<AppMsg>& msgs) {
  std::vector<MsgId> out;
  for (const auto& m : msgs) out.push_back(m.id);
  return out;
}

}  // namespace

// ------------------------------------------------------------ VectorClock

TEST(VectorClock, CoversAfterObserve) {
  VectorClock vc(3);
  EXPECT_FALSE(vc.covers(MsgId{1, 1}));
  vc.observe(MsgId{1, 5});
  EXPECT_TRUE(vc.covers(MsgId{1, 5}));
  EXPECT_TRUE(vc.covers(MsgId{1, 3}));  // earlier seqs are contained
  EXPECT_FALSE(vc.covers(MsgId{1, 6}));
  EXPECT_FALSE(vc.covers(MsgId{0, 1}));
}

TEST(VectorClock, ObserveMustAdvance) {
  VectorClock vc(2);
  vc.observe(MsgId{0, 4});
  EXPECT_THROW(vc.observe(MsgId{0, 4}), InvariantViolation);
  EXPECT_THROW(vc.observe(MsgId{0, 2}), InvariantViolation);
}

TEST(VectorClock, EncodeDecodeRoundTrip) {
  VectorClock vc(4);
  vc.observe(MsgId{0, 10});
  vc.observe(MsgId{3, 7});
  BufWriter w;
  vc.encode(w);
  BufReader r(w.data());
  const VectorClock back = VectorClock::decode(r);
  EXPECT_EQ(back, vc);
  EXPECT_EQ(back.last_of(0), 10u);
  EXPECT_EQ(back.last_of(3), 7u);
}

// -------------------------------------------------------------- AgreedLog

TEST(AgreedLog, AppendsBatchInDeterministicOrder) {
  AgreedLog log(3);
  // Deliberately unsorted batch: the deterministic rule is MsgId order.
  auto delivered = log.append({msg(2, 1), msg(0, 1), msg(1, 1)});
  EXPECT_EQ(ids_of(delivered),
            (std::vector<MsgId>{{0, 1}, {1, 1}, {2, 1}}));
  EXPECT_EQ(log.total(), 3u);
}

TEST(AgreedLog, SkipsMessagesAlreadyContained) {
  AgreedLog log(2);
  log.append({msg(0, 1)});
  auto delivered = log.append({msg(0, 1), msg(0, 2)});  // 0,1 decided twice
  EXPECT_EQ(ids_of(delivered), (std::vector<MsgId>{{0, 2}}));
  EXPECT_EQ(log.skipped_duplicates(), 1u);
  EXPECT_EQ(log.total(), 2u);
}

TEST(AgreedLog, SkipsStaleLowerSeqAfterHigherSeqDelivered) {
  // If (p,2) was agreed before (p,1) ever got in, (p,1) is dropped — and
  // every process drops it identically, keeping the order total.
  AgreedLog log(2);
  log.append({msg(0, 2)});
  auto delivered = log.append({msg(0, 1)});
  EXPECT_TRUE(delivered.empty());
  EXPECT_TRUE(log.contains(MsgId{0, 1}));  // logically contained
}

// The REVIEW regression, at the queue level: a recovered sender's
// new-incarnation root gets ordered BEFORE its previous incarnation's
// durably logged messages (a lost delta plus an optimistic peer view is
// enough). Those messages must still deliver when a later batch carries
// them — supersession is per-incarnation, never across.
TEST(AgreedLog, NewIncarnationRootDoesNotSupersedePriorIncarnation) {
  AgreedLog log(2);
  auto first = log.append({msg(0, make_seq(2, 1))});  // root ordered first
  EXPECT_EQ(first.size(), 1u);
  EXPECT_FALSE(log.contains(MsgId{0, make_seq(1, 4)}));

  auto recovered =
      log.append({msg(0, make_seq(1, 5)), msg(0, make_seq(1, 4))});
  EXPECT_EQ(ids_of(recovered),
            (std::vector<MsgId>{{0, make_seq(1, 4)}, {0, make_seq(1, 5)}}));
  EXPECT_EQ(log.skipped_duplicates(), 0u);
  EXPECT_EQ(log.total(), 3u);
  EXPECT_TRUE(log.contains(MsgId{0, make_seq(1, 5)}));
  EXPECT_TRUE(log.contains(MsgId{0, make_seq(2, 1)}));

  // Within one incarnation the stale-drop rule is unchanged.
  EXPECT_TRUE(log.append({msg(0, make_seq(1, 3))}).empty());
  EXPECT_EQ(log.skipped_duplicates(), 1u);
}

TEST(AgreedLog, ContainsMatchesVc) {
  AgreedLog log(2);
  log.append({msg(1, 3)});
  EXPECT_TRUE(log.contains(MsgId{1, 3}));
  EXPECT_TRUE(log.contains(MsgId{1, 2}));
  EXPECT_FALSE(log.contains(MsgId{1, 4}));
  EXPECT_FALSE(log.contains(MsgId{0, 1}));
}

TEST(AgreedLog, CompactFoldsSuffixIntoCheckpoint) {
  AgreedLog log(2);
  log.append({msg(0, 1), msg(1, 1)});
  log.compact(Bytes{42});
  EXPECT_TRUE(log.suffix().empty());
  ASSERT_TRUE(log.base().has_value());
  EXPECT_EQ(log.base()->state, Bytes{42});
  EXPECT_EQ(log.base()->count, 2u);
  EXPECT_EQ(log.total(), 2u);
  // Containment is preserved through compaction.
  EXPECT_TRUE(log.contains(MsgId{0, 1}));

  auto delivered = log.append({msg(0, 2)});
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.suffix().size(), 1u);
}

TEST(AgreedLog, ResetToBaseAdoptsPeerCheckpointWholesale) {
  // A chunked state transfer installs a peer's application checkpoint by
  // wholesale-replacing the local prefix (total order guarantees ours is a
  // prefix of the peer's), dropping any explicit suffix.
  AgreedLog log(2);
  log.append({msg(0, 1), msg(1, 1)});

  AppCheckpoint peer;
  peer.state = Bytes{9};
  peer.vc = VectorClock(2);
  peer.vc.observe(MsgId{0, 1});
  peer.vc.observe(MsgId{0, 2});
  peer.vc.observe(MsgId{1, 1});
  peer.vc.observe(MsgId{1, 2});
  peer.count = 4;
  log.reset_to_base(peer);

  EXPECT_EQ(log.total(), 4u);
  EXPECT_EQ(log.base_count(), 4u);
  EXPECT_TRUE(log.suffix().empty());
  ASSERT_TRUE(log.base().has_value());
  EXPECT_EQ(log.base()->state, Bytes{9});
  EXPECT_TRUE(log.contains(MsgId{0, 2}));
  EXPECT_TRUE(log.contains(MsgId{1, 2}));
  EXPECT_FALSE(log.contains(MsgId{0, 3}));

  // The adopted clock filters duplicates and admits only the true tail.
  auto delivered = log.append({msg(0, 2), msg(0, 3)});
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].id, (MsgId{0, 3}));
  EXPECT_EQ(log.total(), 5u);
}

TEST(AgreedLog, RepeatedCompaction) {
  AgreedLog log(1);
  log.append({msg(0, 1)});
  log.compact(Bytes{1});
  log.append({msg(0, 2)});
  log.compact(Bytes{2});
  EXPECT_EQ(log.base()->state, Bytes{2});
  EXPECT_EQ(log.base()->count, 2u);
  EXPECT_TRUE(log.suffix().empty());
}

TEST(AgreedLog, EncodeDecodeWithoutBase) {
  AgreedLog log(3);
  log.append({msg(0, 1, "a"), msg(2, 1, "b")});
  BufWriter w;
  log.encode(w);
  BufReader r(w.data());
  AgreedLog back = AgreedLog::decode(r);
  r.expect_done();
  EXPECT_FALSE(back.base().has_value());
  EXPECT_EQ(back.total(), 2u);
  EXPECT_EQ(ids_of(back.suffix()), ids_of(log.suffix()));
  EXPECT_EQ(back.vc(), log.vc());
  EXPECT_EQ(back.suffix()[0].payload, Bytes{'a'});
}

TEST(AgreedLog, EncodeDecodeWithBaseAndSuffix) {
  AgreedLog log(2);
  log.append({msg(0, 1)});
  log.compact(Bytes{7, 8});
  log.append({msg(1, 1, "tail")});
  BufWriter w;
  log.encode(w);
  BufReader r(w.data());
  AgreedLog back = AgreedLog::decode(r);
  ASSERT_TRUE(back.base().has_value());
  EXPECT_EQ(back.base()->state, (Bytes{7, 8}));
  EXPECT_EQ(back.base()->count, 1u);
  EXPECT_EQ(back.suffix().size(), 1u);
  EXPECT_EQ(back.total(), 2u);
  EXPECT_TRUE(back.contains(MsgId{0, 1}));
  EXPECT_TRUE(back.contains(MsgId{1, 1}));
}

TEST(AgreedLog, DecodedLogContinuesCorrectly) {
  AgreedLog log(2);
  log.append({msg(0, 1)});
  BufWriter w;
  log.encode(w);
  BufReader r(w.data());
  AgreedLog back = AgreedLog::decode(r);
  // Appending the same message again is suppressed in the decoded copy.
  EXPECT_TRUE(back.append({msg(0, 1)}).empty());
  EXPECT_EQ(back.append({msg(1, 1)}).size(), 1u);
}

// A log built without its suffix (Options::basic(): no checkpoint record,
// no tail chunks) counts what it delivers and still filters duplicates.
TEST(AgreedLog, CountsWithoutKeepingSuffix) {
  AgreedLog log(2, /*keep_suffix=*/false);
  EXPECT_EQ(log.append({msg(0, 1), msg(1, 1)}).size(), 2u);
  EXPECT_EQ(log.append({msg(0, 1), msg(0, 2)}).size(), 1u);  // (0,1) again
  EXPECT_EQ(log.append_sequence({msg(1, 2), msg(1, 3)}).size(), 2u);
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.skipped_duplicates(), 1u);
  EXPECT_TRUE(log.suffix().empty());
  EXPECT_TRUE(log.contains(MsgId{1, 3}));
  EXPECT_FALSE(log.contains(MsgId{0, 3}));
}

TEST(AgreedLog, EncodeRefusesWithoutSuffix) {
  AgreedLog log(2, /*keep_suffix=*/false);
  log.append({msg(0, 1)});
  BufWriter w;
  EXPECT_THROW(log.encode(w), InvariantViolation);
}

// ---------------------------------------------------------------- AppMsg

TEST(AppMsg, BatchRoundTrip) {
  std::vector<AppMsg> batch{msg(0, 1, "x"), msg(1, 9, "yy")};
  const Bytes b = encode_batch(batch);
  const auto back = decode_batch(b);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, (MsgId{0, 1}));
  EXPECT_EQ(back[1].payload, (Bytes{'y', 'y'}));
}

TEST(AppMsg, EmptyBatchRoundTrip) {
  EXPECT_TRUE(decode_batch(encode_batch({})).empty());
}

TEST(AppMsg, MakeSeqEmbedsIncarnation) {
  const auto s1 = make_seq(1, 1);
  const auto s2 = make_seq(1, 2);
  const auto s3 = make_seq(2, 1);
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s3);  // later incarnations sort after earlier ones
}

TEST(AppMsg, SortDeterministicOrdersByMsgId) {
  std::vector<AppMsg> batch{msg(1, 2), msg(1, 1), msg(0, 9)};
  sort_deterministic(batch);
  EXPECT_EQ(ids_of(batch), (std::vector<MsgId>{{0, 9}, {1, 1}, {1, 2}}));
}
