// End-to-end integration scenarios: partitions, majority loss, long
// downtime, log-backed hosts inside the simulator, and a mixed-fault
// marathon — the situations a deployment actually meets.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "harness/fixture.hpp"
#include "sim/fault_plan.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::harness;
namespace fs = std::filesystem;

TEST(Integration, MinorityPartitionStallsThenCatchesUp) {
  ClusterConfig cfg;
  cfg.sim.n = 5;
  cfg.sim.seed = 51;
  Cluster c(cfg);
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  ASSERT_TRUE(c.await_delivery(warm));

  // Isolate {3,4}: the majority side keeps ordering; the minority must not
  // deliver anything new (they cannot reach consensus quorum).
  c.sim().partition({3, 4});
  auto ids = c.broadcast_many(0, 6);
  ASSERT_TRUE(c.await_delivery(ids, {0, 1, 2}));
  EXPECT_FALSE(c.stack(3)->ab().is_delivered(ids.back()));
  EXPECT_FALSE(c.stack(4)->ab().is_delivered(ids.back()));

  c.sim().heal_partition();
  ASSERT_TRUE(c.await_delivery(ids, {3, 4}));
  c.oracle().check();
}

TEST(Integration, MinorityPartitionCannotDecideAnything) {
  ClusterConfig cfg;
  cfg.sim.n = 5;
  cfg.sim.seed = 52;
  Cluster c(cfg);
  c.start_all();
  c.sim().partition({3, 4});
  // Broadcasts from inside the minority go nowhere while partitioned.
  const MsgId id = c.broadcast(3);
  EXPECT_FALSE(c.await_delivery({id}, {3}, seconds(10)));
  c.sim().heal_partition();
  ASSERT_TRUE(c.await_delivery({id}, {}, seconds(120)));
  c.oracle().check();
}

TEST(Integration, LosingMajorityHaltsProgressUntilRecovery) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 53;
  Cluster c(cfg);
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  ASSERT_TRUE(c.await_delivery(warm));

  c.sim().crash(1);
  c.sim().crash(2);
  const MsgId stalled = c.broadcast(0);
  EXPECT_FALSE(c.await_delivery({stalled}, {0}, seconds(10)));

  c.sim().recover(1);  // majority restored
  ASSERT_TRUE(c.await_delivery({stalled}, {0, 1}, seconds(120)));
  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery({stalled}, {2}, seconds(120)));
  c.oracle().check();
}

TEST(Integration, ProcessDownForLongStretchRejoinsCleanly) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 54;
  cfg.stack.ab.checkpointing = true;
  cfg.stack.ab.app_checkpointing = true;
  cfg.stack.ab.truncate_logs = true;
  cfg.stack.ab.state_transfer = true;
  cfg.stack.ab.delta = 4;
  cfg.stack.ab.checkpoint_period = millis(200);
  Cluster c(cfg);
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  ASSERT_TRUE(c.await_delivery(warm));

  c.sim().crash(2);
  std::vector<MsgId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(c.broadcast(static_cast<ProcessId>(i % 2)));
    c.sim().run_for(millis(100));  // ~50 rounds while p2 is down
  }
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  ASSERT_GT(c.stack(0)->ab().round(), 10u);

  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery(ids, {2}, seconds(120)));
  // Delivery can complete at the snapshot install; the round jump that
  // counts as state_applied rides the session's final tail chunk.
  c.sim().run_for(millis(300));
  EXPECT_GE(c.stack(2)->ab().metrics().state_applied, 1u);
  c.oracle().check();
}

TEST(Integration, RepeatedCrashLoopOnSameProcess) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 55;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int cycle = 0; cycle < 6; ++cycle) {
    auto batch = c.broadcast_many(0, 3);
    ids.insert(ids.end(), batch.begin(), batch.end());
    ASSERT_TRUE(c.await_delivery(batch, {0, 1}));
    c.sim().crash(2);
    c.sim().run_for(millis(50));
    c.sim().recover(2);
  }
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  EXPECT_EQ(c.sim().host(2).stats().crashes, 6u);
  c.oracle().check();
}

TEST(Integration, FileBackedHostsInsideSimulator) {
  const fs::path dir =
      fs::temp_directory_path() / ("abcast_sim_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const auto records = [](StableStorage& s) {
    std::map<std::string, Bytes> out;
    for (const auto& k : s.keys_with_prefix("")) {
      if (auto v = s.get(k)) out.emplace(k, *v);
    }
    return out;
  };
  std::map<std::string, Bytes> node1;
  {
    ClusterConfig cfg;
    cfg.sim.n = 3;
    cfg.sim.seed = 56;
    cfg.sim.storage_factory = [dir](ProcessId p) {
      SegmentedLogConfig log;
      log.dir = dir / ("node" + std::to_string(p));
      log.sync = SyncMode::kNone;
      return std::make_unique<SegmentedLogStorage>(log);
    };
    Cluster c(cfg);
    c.start_all();
    auto ids = c.broadcast_many(0, 8);
    ASSERT_TRUE(c.await_delivery(ids));
    c.sim().crash(1);
    c.sim().recover(1);  // recovery reads the consensus log back
    for (const auto& id : ids) {
      EXPECT_TRUE(c.stack(1)->ab().is_delivered(id));
    }
    c.oracle().check();
    node1 = records(c.sim().host(1).raw_storage());
  }
  // The log is on disk: reopening node 1's directory alone recovers every
  // record the host held, with no damage to truncate.
  ASSERT_FALSE(node1.empty());
  {
    SegmentedLogConfig reopened;
    reopened.dir = dir / "node1";
    reopened.sync = SyncMode::kNone;
    SegmentedLogStorage log(reopened);
    EXPECT_EQ(records(log), node1);
    EXPECT_EQ(log.seg_stats().torn_tail_records, 0u);
  }
  fs::remove_all(dir);
}

TEST(Integration, MixedFaultMarathon) {
  // Loss + duplication + churn + a partition episode, across both engines.
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    ClusterConfig cfg;
    cfg.sim.n = 5;
    cfg.sim.seed = 57;
    cfg.sim.net.drop_prob = 0.08;
    cfg.sim.net.dup_prob = 0.04;
    cfg.stack.engine = engine;
    cfg.stack.ab = core::Options::alternative();
    Cluster c(cfg);
    c.start_all();

    sim::ChurnConfig churn;
    churn.mtbf = seconds(3);
    churn.mttr = millis(300);
    churn.stop = seconds(12);
    churn.victims = {1, 2, 3, 4};
    sim::ChurnInjector injector(c.sim(), churn);

    std::vector<MsgId> ids;
    for (int i = 0; i < 30; ++i) {
      ids.push_back(c.broadcast(0));
      c.sim().run_for(millis(60));
      if (i == 10) c.sim().partition({4});
      if (i == 16) c.sim().heal_partition();
    }
    c.sim().run_until(seconds(14));
    for (ProcessId p = 0; p < 5; ++p) {
      if (!c.sim().host(p).is_up()) c.sim().recover(p);
    }
    ASSERT_TRUE(c.await_delivery(ids, {}, seconds(180)))
        << "engine " << to_string(engine);
    c.oracle().check();
  }
}

TEST(Integration, HighLoadManyRounds) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 58;
  cfg.stack.ab.checkpointing = true;
  cfg.stack.ab.app_checkpointing = true;
  cfg.stack.ab.truncate_logs = true;
  cfg.stack.ab.state_transfer = true;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int burst = 0; burst < 40; ++burst) {
    for (ProcessId p = 0; p < 3; ++p) ids.push_back(c.broadcast(p));
    c.sim().run_for(millis(40));
  }
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(180)));
  c.oracle().check();
  EXPECT_EQ(c.oracle().global_order().size(), 120u);
  // Bounded logs: the footprint must not scale with the 120 messages.
  c.sim().run_for(seconds(1));
  EXPECT_LT(c.sim().host(0).storage().footprint_bytes(), 100000u);
}
