// Tests for the alternative protocol's §5 mechanisms, each isolated:
// checkpointing (§5.1), application-level checkpoints (§5.2), state
// transfer with Δ (§5.3), durable Unordered batching (§5.4), incremental
// logging (§5.5), log truncation, and recovery around torn records.
#include <gtest/gtest.h>

#include "core/ab_wire.hpp"
#include "core/gossip_wire.hpp"
#include "harness/fixture.hpp"

using namespace abcast;
using namespace abcast::harness;

namespace {

ClusterConfig with_options(core::Options options, std::uint32_t n = 3,
                           std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.sim.n = n;
  cfg.sim.seed = seed;
  cfg.stack.ab = options;
  return cfg;
}

/// Runs a paced workload: `count` broadcasts from p0, `gap` apart.
std::vector<MsgId> paced_broadcasts(Cluster& c, int count, Duration gap) {
  std::vector<MsgId> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(gap);
  }
  return ids;
}

/// Flips one byte in the middle of the stored record `key`: the damage a
/// crash inside its put leaves behind.
void damage_record(StableStorage& storage, const std::string& key) {
  auto raw = storage.get(key);
  ASSERT_TRUE(raw.has_value()) << key;
  auto& byte = (*raw)[raw->size() / 2];
  byte = static_cast<std::uint8_t>(byte ^ 0xFFu);
  storage.put(key, *raw);
}

}  // namespace

// ------------------------------------------------------- §5.1 checkpointing

TEST(AbCheckpoint, RecoveryResumesFromCheckpointNotFromRoundZero) {
  core::Options opt;
  opt.checkpointing = true;
  opt.checkpoint_period = millis(300);
  Cluster c(with_options(opt));
  c.start_all();
  auto ids = paced_broadcasts(c, 12, millis(150));
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().run_for(millis(400));  // let a checkpoint happen

  const auto rounds = c.stack(1)->ab().round();
  ASSERT_GE(rounds, 3u);
  c.sim().crash(1);
  c.sim().recover(1);
  // Replay only covers rounds after the last checkpoint.
  EXPECT_LT(c.stack(1)->ab().metrics().replayed_rounds, rounds);
  EXPECT_EQ(c.stack(1)->ab().round(), rounds);
  for (const auto& id : ids) EXPECT_TRUE(c.stack(1)->ab().is_delivered(id));
  c.oracle().check();
}

TEST(AbCheckpoint, CheckpointsAreCountedAndLogged) {
  core::Options opt;
  opt.checkpointing = true;
  opt.checkpoint_period = millis(200);
  Cluster c(with_options(opt));
  c.start_all();
  c.sim().run_for(seconds(2));
  EXPECT_GE(c.stack(0)->ab().metrics().checkpoints, 5u);
  EXPECT_GT(c.log_ops(0).ab, 0u);  // unlike the basic protocol
}

// ----------------------------------------- §5.2 application-level checkpoints

TEST(AbAppCheckpoint, SuffixIsFoldedIntoApplicationState) {
  core::Options opt;
  opt.checkpointing = true;
  opt.app_checkpointing = true;
  opt.checkpoint_period = millis(300);
  Cluster c(with_options(opt));
  c.start_all();
  auto ids = paced_broadcasts(c, 10, millis(100));
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().run_for(millis(500));
  const auto& log = c.stack(0)->ab().agreed();
  ASSERT_TRUE(log.base().has_value());
  EXPECT_LT(log.suffix().size(), 10u);      // folded away
  EXPECT_EQ(log.total(), 10u);              // still logically contained
  for (const auto& id : ids) EXPECT_TRUE(log.contains(id));
}

TEST(AbAppCheckpoint, RecoveryInstallsCheckpointAndSuffix) {
  core::Options opt;
  opt.checkpointing = true;
  opt.app_checkpointing = true;
  opt.checkpoint_period = millis(250);
  Cluster c(with_options(opt, 3, 5));
  c.start_all();
  auto ids = paced_broadcasts(c, 15, millis(120));
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().run_for(millis(300));
  c.sim().crash(2);
  c.sim().recover(2);
  // The oracle verifies install_checkpoint() matched the global prefix; it
  // would have thrown otherwise. Check p2 is logically complete.
  for (const auto& id : ids) EXPECT_TRUE(c.stack(2)->ab().is_delivered(id));
  c.oracle().check();
}

TEST(AbAppCheckpoint, BoundsStableStorageFootprint) {
  // Without truncation the consensus log grows with every round; with app
  // checkpoints + truncation the footprint stays bounded.
  auto run = [](bool truncate) {
    core::Options opt;
    opt.checkpointing = true;
    opt.checkpoint_period = millis(200);
    if (truncate) {
      opt.app_checkpointing = true;
      opt.truncate_logs = true;
      opt.state_transfer = true;
    }
    Cluster c(with_options(opt, 3, 6));
    c.start_all();
    auto ids = paced_broadcasts(c, 40, millis(60));
    c.await_delivery(ids);
    c.sim().run_for(millis(500));
    return c.sim().host(0).storage().footprint_bytes();
  };
  const auto unbounded = run(false);
  const auto bounded = run(true);
  EXPECT_LT(bounded, unbounded / 2);
}

// ------------------------------------------------------ §5.3 state transfer

TEST(AbStateTransfer, FarBehindProcessSkipsMissedInstances) {
  core::Options opt;
  opt.checkpointing = true;
  opt.state_transfer = true;
  opt.delta = 3;
  Cluster c(with_options(opt, 3, 7));
  c.start_all();
  auto warm = paced_broadcasts(c, 2, millis(100));
  ASSERT_TRUE(c.await_delivery(warm));

  c.sim().crash(2);
  auto ids = paced_broadcasts(c, 15, millis(150));  // many rounds pass
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  const auto target_round = c.stack(0)->ab().round();
  ASSERT_GT(target_round, opt.delta + 2);

  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery(ids, {2}));
  // p2 caught up via a state message, not by re-running every instance.
  EXPECT_GE(c.stack(2)->ab().metrics().state_applied, 1u);
  EXPECT_GE(c.stack(0)->ab().metrics().state_sent +
                c.stack(1)->ab().metrics().state_sent,
            1u);
  c.oracle().check();
}

TEST(AbStateTransfer, WithinDeltaUsesNormalCatchUp) {
  core::Options opt;
  opt.checkpointing = true;
  opt.state_transfer = true;
  opt.delta = 50;  // huge Δ: transfers should never trigger
  Cluster c(with_options(opt, 3, 8));
  c.start_all();
  auto warm = paced_broadcasts(c, 2, millis(100));
  ASSERT_TRUE(c.await_delivery(warm));
  c.sim().crash(2);
  auto ids = paced_broadcasts(c, 8, millis(150));
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery(ids, {2}));
  EXPECT_EQ(c.stack(2)->ab().metrics().state_applied, 0u);
  c.oracle().check();
}

TEST(AbStateTransfer, RescuesProcessBehindTruncationHorizon) {
  core::Options opt;
  opt.checkpointing = true;
  opt.app_checkpointing = true;
  opt.truncate_logs = true;
  opt.state_transfer = true;
  opt.delta = 2;
  opt.checkpoint_period = millis(150);
  Cluster c(with_options(opt, 3, 9));
  c.start_all();
  auto warm = paced_broadcasts(c, 2, millis(100));
  ASSERT_TRUE(c.await_delivery(warm));

  c.sim().crash(2);
  auto ids = paced_broadcasts(c, 25, millis(150));
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  c.sim().run_for(millis(500));  // checkpoints + truncation happen
  ASSERT_GT(c.stack(0)->consensus().low_water(), 0u);

  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery(ids, {2}, seconds(120)));
  // Delivery can complete at the snapshot install; run on so the session's
  // final tail chunk lands and the round jump (state_applied) registers.
  c.sim().run_for(millis(300));
  EXPECT_GE(c.stack(2)->ab().metrics().state_applied, 1u);
  c.oracle().check();
}

// ---------------------------------------------- §5.4 durable Unordered set

TEST(AbBatching, BroadcastSurvivesSenderCrashBeforeOrdering) {
  core::Options opt;
  opt.log_unordered = true;
  Cluster c(with_options(opt, 3, 10));
  c.start_all();
  // Partition the sender so nothing gets ordered, then crash it.
  c.sim().partition({0});
  const MsgId id = c.broadcast(0);
  c.sim().run_for(millis(200));
  EXPECT_FALSE(c.stack(0)->ab().is_delivered(id));
  c.sim().crash(0);
  c.sim().heal_partition();
  c.sim().recover(0);
  // The durable Unordered set restored the message; it must be delivered.
  ASSERT_TRUE(c.await_delivery({id}));
  c.oracle().check();
}

TEST(AbBatching, WithoutDurableUnorderedTheMessageIsLost) {
  // Contrast case (basic protocol semantics). The first broadcast becomes
  // durable as the round's Consensus *proposal*; a second broadcast while
  // that round is still in flight lives only in the volatile Unordered set
  // and dies with the sender — the paper's "as if it failed immediately
  // before calling A-broadcast".
  Cluster c(with_options(core::Options::basic(), 3, 11));
  c.start_all();
  c.sim().partition({0});
  const MsgId proposed = c.broadcast(0);   // logged inside Consensus
  const MsgId volatile_only = c.broadcast(0);  // round busy: volatile only
  c.sim().run_for(millis(200));
  c.sim().crash(0);
  c.sim().heal_partition();
  c.sim().recover(0);
  ASSERT_TRUE(c.await_delivery({proposed}, {}, seconds(60)));
  EXPECT_FALSE(c.await_delivery({volatile_only}, {}, seconds(5)));
  EXPECT_FALSE(c.oracle().delivered_globally(volatile_only));
}

TEST(AbBatching, LogsOnePutPerBroadcast) {
  core::Options opt;
  opt.log_unordered = true;
  Cluster c(with_options(opt, 3, 12));
  c.start_all();
  const auto before = c.log_ops(0).ab;
  auto ids = c.broadcast_many(0, 10);
  const auto after = c.log_ops(0).ab;
  EXPECT_EQ(after - before, 10u);
  ASSERT_TRUE(c.await_delivery(ids));
}

// ---------------------------------------------- §5.5 incremental logging

TEST(AbIncremental, WritesFarFewerBytesThanWholeSetLogging) {
  core::Options opt;
  opt.log_unordered = true;
  Cluster c(with_options(opt, 3, 13));
  c.start_all();
  // Build up a large unordered backlog: partition the sender so nothing is
  // ordered while it keeps broadcasting. Whole-set logging would rewrite
  // the growing set on every call, about 25 payloads per broadcast here.
  c.sim().partition({0});
  constexpr std::uint64_t kBroadcasts = 50;
  constexpr std::uint64_t kPayload = 100;
  for (std::uint64_t i = 0; i < kBroadcasts; ++i) {
    c.broadcast(0, Bytes(kPayload, 'x'));
  }
  c.sim().run_for(millis(100));
  auto* mem = dynamic_cast<MemStableStorage*>(&c.sim().host(0).raw_storage());
  // §5.5: each broadcast writes one record, its own message plus a small
  // frame, never the backlog.
  EXPECT_LE(mem->scope_stats("ab").bytes_written, kBroadcasts * 2 * kPayload);
}

TEST(AbIncremental, RecoversPendingMessagesFromItemRecords) {
  core::Options opt;
  opt.log_unordered = true;
  Cluster c(with_options(opt, 3, 14));
  c.start_all();
  c.sim().partition({0});
  std::vector<MsgId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(c.broadcast(0));
  c.sim().run_for(millis(100));
  c.sim().crash(0);
  c.sim().heal_partition();
  c.sim().recover(0);
  EXPECT_EQ(c.stack(0)->ab().unordered_size(), 5u);
  ASSERT_TRUE(c.await_delivery(ids));
  c.oracle().check();
}

TEST(AbIncremental, ItemRecordsAreErasedOnceOrdered) {
  core::Options opt;
  opt.log_unordered = true;
  Cluster c(with_options(opt, 3, 15));
  c.start_all();
  auto ids = c.broadcast_many(0, 5);
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().run_for(seconds(1));
  auto* mem = dynamic_cast<MemStableStorage*>(&c.sim().host(0).raw_storage());
  EXPECT_TRUE(mem->keys_with_prefix("ab/u/").empty());
}

// --------------------------------------------------- full alternative stack

TEST(AbAlternative, EverythingOnWorksTogetherThroughCrashes) {
  Cluster c(with_options(core::Options::alternative(), 5, 16));
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(millis(80));
  }
  c.sim().crash(3);
  for (int i = 0; i < 10; ++i) {
    ids.push_back(c.broadcast(1));
    c.sim().run_for(millis(80));
  }
  c.sim().recover(3);
  c.sim().crash(4);
  c.sim().recover(4);
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  c.oracle().check();
  EXPECT_EQ(c.oracle().global_order().size(), 20u);
}

// ------------------------------------------------ torn records on recovery

TEST(AbRecovery, DamagedCheckpointIsCountedErasedAndReplayedAround) {
  // A torn (k, Agreed) checkpoint is discarded as if it never existed:
  // replay rebuilds every round from the consensus decisions.
  core::Options opt;
  opt.checkpointing = true;
  opt.checkpoint_period = millis(300);
  Cluster c(with_options(opt, 3, 19));
  c.start_all();
  auto ids = paced_broadcasts(c, 12, millis(150));
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().run_for(millis(400));  // let a checkpoint happen

  const auto rounds = c.stack(1)->ab().round();
  ASSERT_GE(rounds, 3u);
  c.sim().crash(1);
  StableStorage& stable = c.sim().host(1).raw_storage();
  damage_record(stable, "ab/ckpt");
  ASSERT_TRUE(c.sim().recover(1));
  const auto& ab = c.stack(1)->ab();
  EXPECT_EQ(ab.metrics().corrupt_records, 1u);
  EXPECT_FALSE(stable.get("ab/ckpt").has_value());
  EXPECT_EQ(ab.metrics().replayed_rounds, rounds);
  for (const auto& id : ids) EXPECT_TRUE(ab.is_delivered(id));
  c.oracle().check();
}

TEST(AbRecovery, DamagedUnorderedRecordsAreCountedAndErased) {
  // A crash can tear only the last put: the newest item record (§5.5).
  // Recovery counts and erases it, keeps every intact item, and the group
  // goes on ordering.
  core::Options opt;
  opt.log_unordered = true;
  Cluster c(with_options(opt, 3, 20));
  c.start_all();
  c.sim().partition({0});  // nothing is ordered before the crash
  std::vector<MsgId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(c.broadcast(0));
  c.sim().run_for(millis(100));
  c.sim().crash(0);

  StableStorage& stable = c.sim().host(0).raw_storage();
  const auto items = stable.keys_with_prefix("ab/u/");
  ASSERT_EQ(items.size(), 3u);
  const std::string torn = items.back();  // keys sort by (sender, seq)
  damage_record(stable, torn);
  c.sim().heal_partition();
  ASSERT_TRUE(c.sim().recover(0));
  EXPECT_EQ(c.stack(0)->ab().metrics().corrupt_records, 1u);
  EXPECT_FALSE(stable.get(torn).has_value());
  EXPECT_EQ(c.stack(0)->ab().unordered_size(), 2u);
  ASSERT_TRUE(c.await_delivery({ids[0], ids[1]}));
  const MsgId fresh = c.broadcast(0);
  ASSERT_TRUE(c.await_delivery({fresh}));
  c.oracle().check();
}

// ------------------------------------------ §5.3 trimmed state transfer

TEST(AbStateTransfer, TrimmedTransferShipsOnlyTheMissingTail) {
  core::Options opt;
  opt.checkpointing = true;
  opt.state_transfer = true;
  opt.delta = 3;
  Cluster c(with_options(opt, 3, 17));
  c.start_all();
  auto warm = paced_broadcasts(c, 10, millis(100));  // shared prefix
  ASSERT_TRUE(c.await_delivery(warm));
  c.sim().crash(2);
  auto ids = paced_broadcasts(c, 20, millis(150));   // the missing tail
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery(ids, {2}));
  c.oracle().check();
  std::uint64_t trimmed_sent = 0, applied = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    trimmed_sent += c.stack(p)->ab().metrics().state_sent_trimmed;
    applied += c.stack(p)->ab().metrics().state_applied;
  }
  EXPECT_GE(trimmed_sent, 1u);
  EXPECT_GE(applied, 1u);
  // p2 recovered holding the 10-message shared prefix and advertised that
  // total, so the tail starts there: the largest chunk carries the 20
  // missing messages (of empty payloads), not the 30 of the whole sequence.
  const auto& largest = c.sim().net_stats().max_payload_by_type;
  ASSERT_EQ(largest.count(MsgType::kAbStateChunk), 1u);
  EXPECT_EQ(largest.at(MsgType::kAbStateChunk),
            core::state_chunk_header_bytes() +
                ids.size() * core::delta_entry_bytes(core::AppMsg{}));
}

TEST(AbStateTransfer, TrimmedFallsBackToFullAfterAppCheckpoint) {
  // Once the sender's prefix is folded into an application checkpoint, a
  // tail-only transfer is impossible; the checkpoint itself streams first.
  core::Options opt;
  opt.checkpointing = true;
  opt.app_checkpointing = true;
  opt.state_transfer = true;
  opt.delta = 3;
  opt.checkpoint_period = millis(200);
  Cluster c(with_options(opt, 3, 18));
  c.start_all();
  auto warm = paced_broadcasts(c, 3, millis(100));
  ASSERT_TRUE(c.await_delivery(warm));
  c.sim().crash(2);
  auto ids = paced_broadcasts(c, 15, millis(150));
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  c.sim().run_for(millis(400));  // checkpoints fold the prefix away
  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery(ids, {2}, seconds(120)));
  // The snapshot install completes delivery; the round jump that counts as
  // state_applied rides the session's final tail chunk one round-trip later.
  c.sim().run_for(millis(300));
  c.oracle().check();
  std::uint64_t trimmed_sent = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    trimmed_sent += c.stack(p)->ab().metrics().state_sent_trimmed;
  }
  EXPECT_EQ(trimmed_sent, 0u);  // all transfers were full
  EXPECT_GE(c.stack(2)->ab().metrics().state_applied, 1u);
}
