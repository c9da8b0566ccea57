// Property-based sweep: the four Atomic Broadcast properties (Validity,
// Integrity, Termination, Total Order) checked by the oracle across a grid
// of (consensus engine × protocol variant × seed) under random crash/
// recovery churn, message loss and duplication — plus targeted tests for
// the paper's proof lemmas P1–P7.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "harness/fixture.hpp"
#include "sim/fault_plan.hpp"

using namespace abcast;
using namespace abcast::harness;

namespace {

enum class Variant { kBasic, kCheckpointed, kFull };

const char* name_of(Variant v) {
  switch (v) {
    case Variant::kBasic: return "basic";
    case Variant::kCheckpointed: return "ckpt";
    case Variant::kFull: return "full";
  }
  return "?";
}

core::Options options_of(Variant v) {
  switch (v) {
    case Variant::kBasic:
      return core::Options::basic();
    case Variant::kCheckpointed: {
      core::Options o;
      o.checkpointing = true;
      o.checkpoint_period = millis(250);
      return o;
    }
    case Variant::kFull:
      return core::Options::alternative();
  }
  return {};
}

using Param =
    std::tuple<ConsensusKind, FdKind, Variant, std::uint64_t /*seed*/>;

class AbProperties : public ::testing::TestWithParam<Param> {};

}  // namespace

TEST_P(AbProperties, SafetyAndTerminationUnderChurn) {
  const auto [engine, fd, variant, seed] = GetParam();

  ClusterConfig cfg;
  cfg.sim.n = 5;
  cfg.sim.seed = seed;
  cfg.sim.net.drop_prob = 0.10;
  cfg.sim.net.dup_prob = 0.05;
  cfg.stack.engine = engine;
  cfg.stack.fd_kind = fd;
  cfg.stack.ab = options_of(variant);
  Cluster c(cfg);
  c.start_all();

  // Random churn over processes 1..4; p0 (the broadcaster) stays good so
  // the basic protocol's Termination clause (1) applies to every message.
  sim::ChurnConfig churn;
  churn.mtbf = seconds(2);
  churn.mttr = millis(400);
  churn.stop = seconds(15);
  churn.victims = {1, 2, 3, 4};
  sim::ChurnInjector injector(c.sim(), churn);

  std::vector<MsgId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(millis(50));
  }

  // Let churn end, bring everyone up, and require full delivery everywhere:
  // Validity/Integrity/Total Order are enforced by the oracle on the fly;
  // this is the Termination check.
  c.sim().run_until(seconds(17));
  for (ProcessId p = 0; p < 5; ++p) {
    if (!c.sim().host(p).is_up()) c.sim().recover(p);
  }
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(180)))
      << "termination violated: engine=" << to_string(engine)
      << " fd=" << to_string(fd) << " variant=" << name_of(variant)
      << " seed=" << seed
      << " delivered=" << c.oracle().global_order().size() << "/40"
      << " crashes=" << injector.crashes_injected();
  c.oracle().check();
  EXPECT_EQ(c.oracle().global_order().size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AbProperties,
    ::testing::Combine(::testing::Values(ConsensusKind::kPaxos,
                                         ConsensusKind::kCoord),
                       ::testing::Values(FdKind::kEpoch,
                                         FdKind::kSuspectList),
                       ::testing::Values(Variant::kBasic,
                                         Variant::kCheckpointed,
                                         Variant::kFull),
                       ::testing::Range<std::uint64_t>(1, 5)),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      std::string fd_name = to_string(std::get<1>(pinfo.param));
      fd_name.erase(std::remove(fd_name.begin(), fd_name.end(), '-'),
                    fd_name.end());
      return std::string(to_string(std::get<0>(pinfo.param))) + "_" +
             fd_name + "_" + name_of(std::get<2>(pinfo.param)) + "_seed" +
             std::to_string(std::get<3>(pinfo.param));
    });

// ---------------------------------------------------------------- lemmas

namespace {

ClusterConfig lemma_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = seed;
  return cfg;
}

}  // namespace

// P1/P2: the round counter never decreases, even across crashes.
TEST(Lemmas, P1P2RoundMonotonicAcrossCrashes) {
  Cluster c(lemma_config(21));
  c.start_all();
  std::uint64_t last_round = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto ids = c.broadcast_many(0, 3);
    ASSERT_TRUE(c.await_delivery(ids));
    const auto r = c.stack(1)->ab().round();
    EXPECT_GE(r, last_round);
    last_round = r;
    c.sim().crash(1);
    c.sim().recover(1);
    EXPECT_GE(c.stack(1)->ab().round(), last_round);
    last_round = c.stack(1)->ab().round();
  }
}

// P3: if a good process reaches round k, all good processes reach >= k.
TEST(Lemmas, P3AllGoodProcessesJoinEveryRound) {
  Cluster c(lemma_config(22));
  c.start_all();
  auto ids = c.broadcast_many(0, 10);
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().run_for(seconds(1));
  const auto r0 = c.stack(0)->ab().round();
  for (ProcessId p = 1; p < 3; ++p) {
    EXPECT_EQ(c.stack(p)->ab().round(), r0);
  }
}

// P4 at the AB level: a crashed-and-recovered process re-proposes the same
// value for the interrupted round, so agreement is unaffected. (The
// consensus-level P4 test lives in consensus_test.cpp; here we check the
// end-to-end effect: no duplicate or lost deliveries across the crash.)
TEST(Lemmas, P4CrashDuringRoundDoesNotCorruptOrder) {
  ClusterConfig cfg = lemma_config(23);
  cfg.sim.net.delay_min = millis(5);
  cfg.sim.net.delay_max = millis(30);  // slow net: crash lands mid-round
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(c.broadcast(0));
    ids.push_back(c.broadcast(1));
    c.sim().run_for(millis(12));
    if (i == 2) {
      c.sim().crash(1);
      c.sim().run_for(millis(40));
      c.sim().recover(1);
    }
  }
  // p1's volatile Unordered may have lost its own unagreed messages — those
  // are excused (sender crashed). Everything p0 sent must arrive, and the
  // oracle catches any order corruption.
  std::vector<MsgId> must_deliver;
  for (const auto& id : ids) {
    if (id.sender == 0) must_deliver.push_back(id);
  }
  ASSERT_TRUE(c.await_delivery(must_deliver, {}, seconds(120)));
  c.oracle().check();
}

// P5: the decision of a round is locked — replay after recovery yields the
// identical Agreed prefix (verified byte-for-byte by the oracle's prefix
// hash when the process re-delivers from scratch).
TEST(Lemmas, P5ReplayReproducesIdenticalPrefix) {
  Cluster c(lemma_config(24));
  c.start_all();
  auto ids = c.broadcast_many(0, 10);
  ASSERT_TRUE(c.await_delivery(ids));
  for (int i = 0; i < 3; ++i) {
    c.sim().crash(2);
    c.sim().recover(2);  // replay re-delivers; oracle verifies prefix match
  }
  c.oracle().check();
  EXPECT_EQ(c.oracle().position(2), 10u);
}

// P6: a message A-broadcast by a good process eventually reaches every good
// process's Unordered or Agreed set — even processes that were down when it
// was sent.
TEST(Lemmas, P6GossipReachesLateJoiners) {
  Cluster c(lemma_config(25));
  c.start_all();
  c.sim().crash(2);
  const MsgId id = c.broadcast(0);
  ASSERT_TRUE(c.await_delivery({id}, {0, 1}));
  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery({id}, {2}));
}

// P7: a message A-delivered by ANY process (even one that then dies
// forever) is eventually delivered by all good processes — uniformity.
TEST(Lemmas, P7UniformDeliveryWhenDelivererDiesForever) {
  // Use a fast gossip so p0 can deliver quickly after a partition heals.
  ClusterConfig cfg = lemma_config(26);
  cfg.sim.n = 5;
  Cluster c(cfg);
  c.start_all();
  const MsgId id = c.broadcast(0);
  // Wait until p0 alone has delivered (others may or may not have).
  ASSERT_TRUE(c.sim().run_until_pred(
      [&] { return c.stack(0)->ab().is_delivered(id); },
      c.sim().now() + seconds(60)));
  c.sim().crash(0);  // the deliverer dies forever
  ASSERT_TRUE(c.await_delivery({id}, {1, 2, 3, 4}, seconds(120)));
  c.oracle().check();
}

// Determinism of the whole stack: same seed, same global order and the
// same delivery latencies. Another seed must change the run: ten paced
// broadcasts may well come out in the same order, but not at the same
// times.
TEST(Lemmas, WholeStackIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.sim.n = 4;
    cfg.sim.seed = seed;
    cfg.sim.net.drop_prob = 0.15;
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    for (int i = 0; i < 10; ++i) {
      ids.push_back(c.broadcast(static_cast<ProcessId>(i % 4)));
      c.sim().run_for(millis(20));
    }
    c.sim().crash_at(millis(150), 2);
    c.sim().recover_at(millis(350), 2);
    c.await_delivery(ids, {}, seconds(60));
    return std::make_pair(c.oracle().global_order(), c.oracle().latencies());
  };
  const auto a = run(31);
  const auto b = run(31);
  ASSERT_EQ(a.first.size(), b.first.size());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run(32));
}
