// Tests for the pipelined sequencer (DESIGN.md §14): α consensus rounds in
// flight concurrently, event-driven slot opening with a timer flush leg,
// delivery gated on the contiguous decided prefix, safety under competing
// proposers with capped batches (the supersession counter-example), the
// cons_inflight gauge, and crash-recovery mid-window (window bookkeeping is
// rebuilt from the logged proposals).
#include <gtest/gtest.h>

#include "harness/fixture.hpp"

using namespace abcast;
using namespace abcast::harness;

namespace {

ClusterConfig window_config(std::uint32_t n, std::uint64_t seed,
                            std::uint64_t alpha, std::size_t cap,
                            bool alternative = false) {
  ClusterConfig cfg;
  cfg.sim.n = n;
  cfg.sim.seed = seed;
  cfg.stack.ab =
      alternative ? core::Options::alternative() : core::Options::basic();
  cfg.stack.ab.pipeline_window = alpha;
  cfg.stack.ab.max_proposal_msgs = cap;
  return cfg;
}

std::int64_t inflight_gauge(Cluster& c, ProcessId p) {
  return c.sim()
      .metrics_registry()
      .gauge("cons_inflight", {{"node", std::to_string(p)}})
      .value();
}

}  // namespace

TEST(Pipeline, BurstFillsTheWholeWindowBeforeAnyDecision) {
  // cap = 2, α = 4. A burst of 8 broadcasts (no simulation steps in
  // between, so nothing can decide) must open every slot: the head opens on
  // the first message, each later slot opens exactly when its fresh portion
  // fills the cap. The slot batches are cumulative (riders), so the last
  // proposal carries the whole backlog.
  Cluster c(window_config(3, 21, /*alpha=*/4, /*cap=*/2));
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(c.broadcast(0));

  const auto& m = c.stack(0)->ab().metrics();
  EXPECT_EQ(m.proposals, 4u);  // slots k..k+3, in order
  EXPECT_EQ(m.proposals_event_triggered, 4u);
  EXPECT_EQ(m.empty_proposals, 0u);
  EXPECT_EQ(inflight_gauge(c, 0), 4);  // four undecided proposed instances
  EXPECT_EQ(inflight_gauge(c, 1), 0);  // nothing has reached the peers yet

  ASSERT_TRUE(c.await_delivery(ids));
  ASSERT_TRUE(c.await_quiesced());
  c.oracle().check();
  EXPECT_EQ(c.oracle().global_order().size(), 8u);
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(inflight_gauge(c, p), 0);
}

TEST(Pipeline, TimerLegFlushesPartialBatches) {
  // Isolate p0 so no slot can decide, then trickle two messages: the head
  // slot opens on the first, the second slot's fresh portion (one message)
  // stays below the cap — only the gossip tick's timer leg may flush it.
  Cluster c(window_config(3, 22, /*alpha=*/4, /*cap=*/8));
  c.start_all();
  c.sim().partition({0});
  std::vector<MsgId> ids;
  ids.push_back(c.broadcast(0));
  ids.push_back(c.broadcast(0));
  const auto& m = c.stack(0)->ab().metrics();
  EXPECT_EQ(m.proposals, 1u);  // the head only; slot k+1 is below budget
  c.sim().run_for(millis(120));
  EXPECT_EQ(m.proposals, 2u);  // the tick flushed the partial batch
  EXPECT_EQ(m.proposals_event_triggered, 1u);  // timer flush is not an event

  c.sim().heal_partition();
  ASSERT_TRUE(c.await_delivery(ids));
  ASSERT_TRUE(c.await_quiesced());
  c.oracle().check();
}

TEST(Pipeline, ConcurrentBroadcastersAgreeOnOneOrder) {
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    ClusterConfig cfg = window_config(3, 23, /*alpha=*/8, /*cap=*/2);
    cfg.stack.engine = engine;
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    for (int round = 0; round < 10; ++round) {
      for (ProcessId p = 0; p < 3; ++p) ids.push_back(c.broadcast(p));
      c.sim().run_for(millis(2));
    }
    ASSERT_TRUE(c.await_delivery(ids));
    ASSERT_TRUE(c.await_quiesced());
    c.oracle().check();
    EXPECT_EQ(c.oracle().global_order().size(), 30u);
  }
}

TEST(Pipeline, CapOneSurvivesCompetingProposers) {
  // The supersession counter-example: with cap = 1 a naive pipeline can
  // decide (p, s+1) in a round before (p, s), after which the duplicate
  // filter would treat (p, s) as already covered and drop it forever. The
  // cumulative rider batches keep every proposal prefix-closed per sender,
  // so all messages must still deliver, exactly once, in one total order.
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    ClusterConfig cfg = window_config(3, 24, /*alpha=*/4, /*cap=*/1);
    cfg.stack.engine = engine;
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    for (int round = 0; round < 5; ++round) {
      for (ProcessId p = 0; p < 3; ++p) ids.push_back(c.broadcast(p));
      c.sim().run_for(millis(1));
    }
    ASSERT_TRUE(c.await_delivery(ids));
    ASSERT_TRUE(c.await_quiesced());
    c.oracle().check();  // integrity: exactly-once, total order
    EXPECT_EQ(c.oracle().global_order().size(), 15u);
  }
}

TEST(Pipeline, LossyNetworkStillTotallyOrders) {
  // Loss reorders decision arrivals across in-flight instances, so decides
  // land out of order and park until the prefix closes.
  ClusterConfig cfg = window_config(3, 25, /*alpha=*/16, /*cap=*/2);
  cfg.sim.net.drop_prob = 0.25;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(c.broadcast(i % 3));
    c.sim().run_for(millis(1));
  }
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  ASSERT_TRUE(c.await_quiesced(seconds(120)));
  c.oracle().check();
}

TEST(Pipeline, CrashMidWindowRecoversEverything) {
  // Crash the proposer while several slots are in flight. Recovery replays
  // the decided prefix, re-proposes the logged undecided proposals, and
  // rebuild_window_state re-derives the rider bookkeeping from them — the
  // stream then continues without duplicating or losing anything. A window
  // of one recovers through the same bookkeeping, with the head slot alone.
  for (const std::uint64_t alpha : {1u, 8u}) {
    for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
      SCOPED_TRACE(testing::Message() << "alpha=" << alpha);
      ClusterConfig cfg =
          window_config(3, 26, alpha, /*cap=*/2, /*alternative=*/true);
      cfg.stack.engine = engine;
      Cluster c(cfg);
      c.start_all();
      std::vector<MsgId> ids;
      for (int i = 0; i < 10; ++i) ids.push_back(c.broadcast(0));
      c.sim().run_for(millis(3));  // some slots decide, some stay in flight
      c.sim().crash(0);
      c.sim().run_for(millis(50));
      ASSERT_TRUE(c.sim().recover(0));
      for (int i = 0; i < 6; ++i) ids.push_back(c.broadcast(0));
      ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
      ASSERT_TRUE(c.await_quiesced(seconds(120)));
      c.oracle().check();
      EXPECT_EQ(c.oracle().global_order().size(), 16u);
    }
  }
}

TEST(Pipeline, NonProposerCrashMidWindowCatchesUp) {
  ClusterConfig cfg =
      window_config(3, 27, /*alpha=*/8, /*cap=*/2, /*alternative=*/true);
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(c.broadcast(0));
  c.sim().run_for(millis(2));
  c.sim().crash(2);
  for (int i = 0; i < 6; ++i) ids.push_back(c.broadcast(1));
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  ASSERT_TRUE(c.sim().recover(2));
  ASSERT_TRUE(c.await_delivery(ids, {2}, seconds(120)));
  ASSERT_TRUE(c.await_quiesced(seconds(120)));
  c.oracle().check();
}

TEST(Pipeline, WindowOneKeepsLegacyBehavior) {
  // α = 1 is a window of one: the paper's sequencer (Fig. 2), which proposes
  // round k only after round k-1 decides. Pin its observable invariants: at
  // most one instance in flight at every process after every step, and in a
  // crash-free loaded run every proposal is non-empty and event-triggered
  // (the gossip tick's timer leg never proposes in a window of one).
  Cluster c(window_config(3, 28, /*alpha=*/1, /*cap=*/0));
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(micros(200));
    for (ProcessId p = 0; p < 3; ++p) EXPECT_LE(inflight_gauge(c, p), 1);
  }
  ASSERT_TRUE(c.await_delivery(ids));
  ASSERT_TRUE(c.await_quiesced());
  c.oracle().check();
  const auto& m = c.stack(0)->ab().metrics();
  EXPECT_EQ(m.empty_proposals, 0u);
  EXPECT_EQ(m.proposals, m.proposals_event_triggered);
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(inflight_gauge(c, p), 0);
}

TEST(Pipeline, CommitGapHistogramRecordsParkedDecides) {
  // Under a wide window with load, at least one decision should land above
  // the contiguous prefix (the histogram is cluster-wide in the sim
  // registry). This also pins the metric's name for the dashboards.
  ClusterConfig cfg = window_config(3, 29, /*alpha=*/16, /*cap=*/1);
  cfg.sim.net.drop_prob = 0.2;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 24; ++i) {
    ids.push_back(c.broadcast(i % 3));
    c.sim().run_for(micros(500));
  }
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  ASSERT_TRUE(c.await_quiesced(seconds(120)));
  c.oracle().check();
  EXPECT_GT(c.sim().metrics_registry().histogram("ab_commit_gap").count(), 0u);
}
