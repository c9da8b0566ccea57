// Tests for the discrete-event simulator: scheduler semantics, crash/
// recovery mechanics, channel behaviour, determinism, fault injection.
#include <gtest/gtest.h>

#include "sim/fault_plan.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"

using namespace abcast;
using namespace abcast::sim;

namespace {

/// Minimal NodeApp that records everything the host does to it.
class Probe final : public NodeApp {
 public:
  struct Shared {
    int starts = 0;
    int recoveries = 0;
    std::vector<std::pair<ProcessId, MsgType>> received;
    int timer_fires = 0;
  };

  Probe(Env& env, Shared& shared) : env_(env), shared_(shared) {}

  void start(bool recovering) override {
    shared_.starts += 1;
    if (recovering) shared_.recoveries += 1;
  }
  void on_message(ProcessId from, const Wire& msg) override {
    shared_.received.emplace_back(from, msg.type);
  }

  Env& env() { return env_; }

 private:
  Env& env_;
  Shared& shared_;
};

struct ProbeCluster {
  explicit ProbeCluster(SimConfig cfg) : sim(cfg), shared(cfg.n) {
    sim.set_node_factory([this](Env& env) {
      return std::make_unique<Probe>(env, shared[env.self()]);
    });
  }
  Probe* probe(ProcessId p) { return static_cast<Probe*>(sim.node(p)); }

  Simulation sim;
  std::vector<Probe::Shared> shared;
};

Wire ping() { return Wire{MsgType::kFdHeartbeat, {1, 2, 3}}; }

}  // namespace

// ---------------------------------------------------------------- Scheduler

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  while (s.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, TiesBreakInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  while (s.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const auto token = s.schedule_at(10, [&] { fired = true; });
  s.cancel(token);
  while (s.step()) {
  }
  EXPECT_FALSE(fired);
  s.cancel(token);  // double-cancel is a no-op
}

TEST(Scheduler, PastDeadlinesClampToNow) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.step();
  bool fired = false;
  s.schedule_at(50, [&] { fired = true; });  // in the past
  EXPECT_EQ(*s.next_time(), 100);
  s.step();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 100);
}

TEST(Scheduler, EventsScheduledDuringEventsRun) {
  Scheduler s;
  int depth = 0;
  s.schedule_at(1, [&] {
    s.schedule_after(1, [&] { depth = 2; });
    depth = 1;
  });
  while (s.step()) {
  }
  EXPECT_EQ(depth, 2);
}

// ---------------------------------------------------------------- Hosts

TEST(SimHosts, StartAllConstructsEveryProcess) {
  ProbeCluster c({.n = 3, .seed = 1});
  c.sim.start_all();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(c.sim.host(p).is_up());
    EXPECT_EQ(c.shared[p].starts, 1);
    EXPECT_EQ(c.shared[p].recoveries, 0);
  }
}

TEST(SimHosts, CrashDestroysStackAndRecoveryRebuildsIt) {
  ProbeCluster c({.n = 2, .seed = 1});
  c.sim.start_all();
  c.sim.crash(1);
  EXPECT_FALSE(c.sim.host(1).is_up());
  EXPECT_EQ(c.sim.node(1), nullptr);
  c.sim.recover(1);
  EXPECT_TRUE(c.sim.host(1).is_up());
  EXPECT_EQ(c.shared[1].starts, 2);
  EXPECT_EQ(c.shared[1].recoveries, 1);
  EXPECT_EQ(c.sim.host(1).stats().crashes, 1u);
  EXPECT_EQ(c.sim.host(1).stats().recoveries, 1u);
}

TEST(SimHosts, MessagesToDownProcessAreLost) {
  ProbeCluster c({.n = 2, .seed = 1});
  c.sim.start_all();
  c.sim.crash(1);
  c.probe(0)->env().send(1, ping());
  c.sim.run_for(seconds(1));
  c.sim.recover(1);
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(c.shared[1].received.empty());
  EXPECT_EQ(c.sim.net_stats().dropped_down, 1u);
}

TEST(SimHosts, TimersAreCancelledByCrash) {
  ProbeCluster c({.n = 1, .seed = 1});
  c.sim.start_all();
  int fires = 0;
  c.probe(0)->env().schedule_after(millis(10), [&] { fires++; });
  c.sim.crash(0);
  c.sim.recover(0);
  c.sim.run_for(seconds(1));
  EXPECT_EQ(fires, 0);
}

TEST(SimHosts, TimerCancelWorks) {
  ProbeCluster c({.n = 1, .seed = 1});
  c.sim.start_all();
  int fires = 0;
  auto& env = c.probe(0)->env();
  const TimerId id = env.schedule_after(millis(10), [&] { fires++; });
  env.schedule_after(millis(20), [&] { fires += 100; });
  env.cancel_timer(id);
  c.sim.run_for(seconds(1));
  EXPECT_EQ(fires, 100);
}

TEST(SimHosts, StableStorageSurvivesCrash) {
  ProbeCluster c({.n = 1, .seed = 1});
  c.sim.start_all();
  c.probe(0)->env().storage().put("x", Bytes{9});
  c.sim.crash(0);
  c.sim.recover(0);
  EXPECT_EQ(c.probe(0)->env().storage().get("x"), Bytes{9});
}

TEST(SimHosts, SelfSendIsReliable) {
  SimConfig cfg{.n = 2, .seed = 1};
  cfg.net.drop_prob = 1.0;  // channel loses everything
  ProbeCluster c(cfg);
  c.sim.start_all();
  c.probe(0)->env().send(0, ping());
  c.probe(0)->env().send(1, ping());
  c.sim.run_for(seconds(1));
  ASSERT_EQ(c.shared[0].received.size(), 1u);
  EXPECT_TRUE(c.shared[1].received.empty());
  EXPECT_EQ(c.sim.net_stats().dropped_channel, 1u);
}

TEST(SimHosts, MultisendReachesEveryoneIncludingSelf) {
  ProbeCluster c({.n = 4, .seed = 1});
  c.sim.start_all();
  c.probe(2)->env().multisend(ping());
  c.sim.run_for(seconds(1));
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(c.shared[p].received.size(), 1u) << "p" << p;
    EXPECT_EQ(c.shared[p].received[0].first, 2u);
  }
}

// ---------------------------------------------------------------- Network

TEST(SimNetwork, DeliveryDelayWithinConfiguredBounds) {
  SimConfig cfg{.n = 2, .seed = 5};
  cfg.net.delay_min = millis(3);
  cfg.net.delay_max = millis(7);
  ProbeCluster c(cfg);
  c.sim.start_all();
  c.probe(0)->env().send(1, ping());
  c.sim.run_until(millis(3) - 1);
  EXPECT_TRUE(c.shared[1].received.empty());
  c.sim.run_until(millis(7));
  EXPECT_EQ(c.shared[1].received.size(), 1u);
}

TEST(SimNetwork, DuplicationDeliversTwice) {
  SimConfig cfg{.n = 2, .seed = 3};
  cfg.net.dup_prob = 1.0;
  ProbeCluster c(cfg);
  c.sim.start_all();
  c.probe(0)->env().send(1, ping());
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.shared[1].received.size(), 2u);
  EXPECT_EQ(c.sim.net_stats().duplicated, 1u);
}

TEST(SimNetwork, LossRateIsRoughlyRespected) {
  SimConfig cfg{.n = 2, .seed = 11};
  cfg.net.drop_prob = 0.3;
  ProbeCluster c(cfg);
  c.sim.start_all();
  for (int i = 0; i < 2000; ++i) c.probe(0)->env().send(1, ping());
  c.sim.run_for(seconds(5));
  const double received = static_cast<double>(c.shared[1].received.size());
  EXPECT_NEAR(received / 2000.0, 0.7, 0.05);
}

TEST(SimNetwork, PartitionBlocksAndHealRestores) {
  ProbeCluster c({.n = 3, .seed = 1});
  c.sim.start_all();
  c.sim.partition({0});  // isolate p0
  c.probe(0)->env().send(1, ping());
  c.probe(1)->env().send(0, ping());
  c.probe(1)->env().send(2, ping());
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(c.shared[0].received.empty());
  EXPECT_TRUE(c.shared[1].received.empty());
  EXPECT_EQ(c.sim.net_stats().dropped_partition, 2u);
  EXPECT_EQ(c.shared[2].received.size(), 1u);

  c.sim.heal_partition();
  c.probe(0)->env().send(1, ping());
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.shared[1].received.size(), 1u);
}

// The network carries a payload of exactly its limit and drops one byte
// more, counted apart from channel loss. Self sends cross the same limit,
// as a UDP host's self-addressed datagram does.
TEST(SimNetwork, PayloadAboveTheLimitIsDroppedAndCounted) {
  EXPECT_EQ(NetConfig{}.max_datagram_bytes, 65'497u);  // UDP's, by default
  SimConfig cfg{.n = 2, .seed = 1};
  cfg.net.max_datagram_bytes = 100;
  ProbeCluster c(cfg);
  c.sim.start_all();
  Env& env = c.probe(0)->env();
  EXPECT_EQ(env.max_datagram_bytes(), 100u);
  env.send(1, Wire{MsgType::kFdHeartbeat, Bytes(100, 1)});
  env.send(1, Wire{MsgType::kFdHeartbeat, Bytes(101, 1)});
  env.send(0, Wire{MsgType::kFdHeartbeat, Bytes(101, 1)});
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.shared[1].received.size(), 1u);
  EXPECT_TRUE(c.shared[0].received.empty());
  EXPECT_EQ(c.sim.net_stats().dropped_oversize, 2u);
  EXPECT_EQ(c.sim.net_stats().dropped_channel, 0u);
}

// ------------------------------------------------------------- Determinism

TEST(SimDeterminism, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    SimConfig cfg{.n = 3, .seed = seed};
    cfg.net.drop_prob = 0.2;
    cfg.net.dup_prob = 0.1;
    ProbeCluster c(cfg);
    c.sim.start_all();
    for (int i = 0; i < 50; ++i) {
      c.sim.after(millis(i * 7), [&c, i] {
        const ProcessId p = static_cast<ProcessId>(i % 3);
        if (c.sim.host(p).is_up()) c.probe(p)->env().multisend(ping());
      });
    }
    c.sim.crash_at(millis(100), 1);
    c.sim.recover_at(millis(200), 1);
    c.sim.run_until(seconds(2));
    return std::tuple{c.sim.net_stats().sent, c.sim.net_stats().delivered,
                      c.sim.net_stats().dropped_channel,
                      c.sim.events_fired()};
  };
  EXPECT_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

// ---------------------------------------------------------- Fault injection

TEST(FaultScript, AppliesCrashAndRecoverAtGivenTimes) {
  ProbeCluster c({.n = 2, .seed = 1});
  c.sim.start_all();
  install_fault_script(c.sim, {
                                  {millis(10), 1, FaultKind::kCrash},
                                  {millis(30), 1, FaultKind::kRecover},
                              });
  c.sim.run_until(millis(20));
  EXPECT_FALSE(c.sim.host(1).is_up());
  c.sim.run_until(millis(40));
  EXPECT_TRUE(c.sim.host(1).is_up());
}

TEST(FaultScript, RedundantEventsAreIgnored) {
  ProbeCluster c({.n = 1, .seed = 1});
  c.sim.start_all();
  install_fault_script(c.sim, {
                                  {millis(10), 0, FaultKind::kCrash},
                                  {millis(11), 0, FaultKind::kCrash},
                                  {millis(12), 0, FaultKind::kRecover},
                                  {millis(13), 0, FaultKind::kRecover},
                              });
  c.sim.run_until(seconds(1));
  EXPECT_TRUE(c.sim.host(0).is_up());
  EXPECT_EQ(c.sim.host(0).stats().crashes, 1u);
}

TEST(Churn, PreservesMajorityByDefault) {
  ProbeCluster c({.n = 5, .seed = 9});
  c.sim.start_all();
  ChurnConfig cc;
  cc.mtbf = millis(200);
  cc.mttr = millis(400);  // long repairs stress the max_down guard
  cc.stop = seconds(20);
  ChurnInjector churn(c.sim, cc);
  std::uint32_t min_up = 5;
  for (int i = 0; i < 200; ++i) {
    c.sim.run_for(millis(100));
    std::uint32_t up = 0;
    for (ProcessId p = 0; p < 5; ++p) up += c.sim.host(p).is_up() ? 1u : 0u;
    min_up = std::min(min_up, up);
  }
  EXPECT_GE(min_up, 3u);     // majority always up
  EXPECT_GT(churn.crashes_injected(), 10u);
}

TEST(Churn, RespectsVictimList) {
  ProbeCluster c({.n = 3, .seed = 4});
  c.sim.start_all();
  ChurnConfig cc;
  cc.mtbf = millis(50);
  cc.mttr = millis(50);
  cc.victims = {2};
  cc.stop = seconds(5);
  ChurnInjector churn(c.sim, cc);
  c.sim.run_until(seconds(6));
  EXPECT_EQ(c.sim.host(0).stats().crashes, 0u);
  EXPECT_EQ(c.sim.host(1).stats().crashes, 0u);
  EXPECT_GT(c.sim.host(2).stats().crashes, 0u);
}

TEST(Churn, StopsAtConfiguredTime) {
  ProbeCluster c({.n = 3, .seed = 4});
  c.sim.start_all();
  ChurnConfig cc;
  cc.mtbf = millis(50);
  cc.mttr = millis(20);
  cc.stop = seconds(2);
  ChurnInjector churn(c.sim, cc);
  c.sim.run_until(seconds(3));
  const auto crashes_at_stop = churn.crashes_injected();
  c.sim.run_until(seconds(10));
  EXPECT_EQ(churn.crashes_injected(), crashes_at_stop);
}

TEST(SimNetwork, PerTypeAccountingAttributesTraffic) {
  ProbeCluster c({.n = 2, .seed = 21});
  c.sim.start_all();
  c.probe(0)->env().send(1, Wire{MsgType::kFdHeartbeat, {1, 2, 3}});
  c.probe(0)->env().send(1, Wire{MsgType::kAbGossip, {1}});
  c.probe(0)->env().send(1, Wire{MsgType::kAbGossip, {}});
  c.sim.run_for(seconds(1));
  const auto& net = c.sim.net_stats();
  EXPECT_EQ(net.sent_of(MsgType::kFdHeartbeat), 1u);
  EXPECT_EQ(net.sent_of(MsgType::kAbGossip), 2u);
  EXPECT_EQ(net.sent_of(MsgType::kAbStateChunk), 0u);
  EXPECT_EQ(net.bytes_by_type.at(MsgType::kFdHeartbeat), 3 + 2u);
}

// ------------------------------------------------- Storage fault injection

namespace {

/// NodeApp that writes to stable storage on start and then periodically,
/// so storage crash-points have log operations to land on.
class ScribblerNode final : public NodeApp {
 public:
  explicit ScribblerNode(Env& env) : env_(env) {}

  void start(bool) override {
    env_.storage().put("boot", Bytes{1});
    tick();
  }
  void on_message(ProcessId, const Wire&) override {}

 private:
  void tick() {
    seq_ += 1;
    env_.storage().put("rec", Bytes{static_cast<std::uint8_t>(seq_ & 0xFF)});
    env_.schedule_after(millis(5), [this] { tick(); });
  }

  Env& env_;
  std::uint64_t seq_ = 0;
};

struct ScribblerCluster {
  explicit ScribblerCluster(SimConfig cfg) : sim(cfg) {
    sim.set_node_factory(
        [](Env& env) { return std::make_unique<ScribblerNode>(env); });
  }
  Simulation sim;
};

}  // namespace

TEST(StorageFaults, CrashPointConvertsToHostCrash) {
  ScribblerCluster c({.n = 3, .seed = 5});
  auto& sim = c.sim;
  sim.start_all();
  sim.run_for(millis(20));
  sim.crash_at_storage_op(1, sim.storage_faults(1).op_count() + 2,
                          CrashPhase::kTornWrite);
  sim.run_for(millis(50));
  EXPECT_FALSE(sim.host(1).is_up());
  EXPECT_EQ(sim.host(1).stats().crashes, 1u);
  EXPECT_EQ(sim.host(1).stats().storage_crashes, 1u);
  EXPECT_EQ(sim.storage_faults(1).fault_stats().crash_points_fired, 1u);
  // Crash-points are one-shot: recovery replays the op and survives.
  EXPECT_TRUE(sim.recover(1));
  sim.run_for(millis(50));
  EXPECT_TRUE(sim.host(1).is_up());
}

TEST(StorageFaults, FaultScriptArmsCrashAtStorageOp) {
  ScribblerCluster c({.n = 2, .seed = 6});
  auto& sim = c.sim;
  sim.start_all();
  install_fault_script(sim, {{millis(10), 0, FaultKind::kCrashAtStorageOp,
                              /*op_index=*/3, CrashPhase::kAfterOp}});
  sim.run_until(millis(9));
  EXPECT_TRUE(sim.host(0).is_up());
  sim.run_until(millis(60));
  EXPECT_FALSE(sim.host(0).is_up());
  EXPECT_EQ(sim.host(0).stats().storage_crashes, 1u);
}

TEST(StorageFaults, RecoveryItselfCanDieOnStorageFault) {
  ScribblerCluster c({.n = 2, .seed = 7});
  auto& sim = c.sim;
  sim.start_all();
  sim.crash(0);
  // start(recovering) writes "boot" as its first log op — arm a crash there.
  sim.storage_faults(0).arm_crash_in(1, CrashPhase::kBeforeOp);
  EXPECT_FALSE(sim.recover(0));
  EXPECT_FALSE(sim.host(0).is_up());
  EXPECT_EQ(sim.host(0).stats().failed_recoveries, 1u);
  // One-shot crash-point was consumed; the retry succeeds.
  EXPECT_TRUE(sim.recover(0));
  EXPECT_TRUE(sim.host(0).is_up());
}

TEST(StorageFaults, EscapingIoErrorCrashesHostAndAutoMedicRevives) {
  ScribblerCluster c({.n = 3, .seed = 8});
  auto& sim = c.sim;
  StorageFaultProfile profile;
  profile.put_io_error_prob = 0.05;
  sim.start_all();
  for (ProcessId p = 0; p < 3; ++p) sim.storage_faults(p).set_profile(profile);
  AutoMedic medic(sim, millis(50));
  sim.run_for(seconds(10));
  std::uint64_t storage_crashes = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    storage_crashes += sim.host(p).stats().storage_crashes;
  }
  EXPECT_GT(storage_crashes, 10u);  // faults escaped and killed hosts
  EXPECT_GT(medic.recoveries(), 10u);
  // Stop injecting, let the medic bring everyone back up.
  for (ProcessId p = 0; p < 3; ++p) {
    sim.storage_faults(p).set_profile(StorageFaultProfile{});
  }
  sim.run_for(seconds(1));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_TRUE(sim.host(p).is_up());
}

TEST(Churn, StorageCrashModeLandsCrashesInsideTheLogWindow) {
  ScribblerCluster c({.n = 3, .seed = 11});
  auto& sim = c.sim;
  sim.start_all();
  ChurnConfig cc;
  cc.mtbf = millis(100);
  cc.mttr = millis(50);
  cc.stop = seconds(10);
  cc.storage_crash_prob = 1.0;  // every churn crash is a storage crash-point
  ChurnInjector churn(sim, cc);
  sim.run_until(seconds(11));
  EXPECT_GT(churn.crashes_injected(), 20u);
  EXPECT_EQ(churn.storage_crashes_armed(), churn.crashes_injected());
  std::uint64_t fired = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    fired += sim.storage_faults(p).fault_stats().crash_points_fired;
  }
  EXPECT_GT(fired, 0u);  // scribblers log constantly, so points do fire
  for (ProcessId p = 0; p < 3; ++p) {
    if (!sim.host(p).is_up()) {
      EXPECT_TRUE(sim.recover(p));
    }
  }
}

TEST(Churn, StrictMinorityDownAtEveryInstant) {
  // max_down = 0 means "strict minority down" — the Consensus liveness
  // precondition. Verify it at EVERY simulation event, not just at sample
  // points, across several long randomized runs mixing plain and
  // storage-crash churn.
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    for (const std::uint32_t n : {4u, 5u}) {
      ScribblerCluster c({.n = n, .seed = seed});
      auto& sim = c.sim;
      sim.start_all();
      ChurnConfig cc;
      cc.mtbf = millis(60);
      cc.mttr = millis(120);  // slow repairs stress the guard
      cc.stop = seconds(8);
      cc.storage_crash_prob = 0.5;
      ChurnInjector churn(sim, cc);
      const std::uint32_t majority = n / 2 + 1;
      std::uint64_t events = 0;
      while (sim.now() < seconds(9) && sim.step()) {
        events += 1;
        std::uint32_t up = 0;
        for (ProcessId p = 0; p < n; ++p) up += sim.host(p).is_up() ? 1u : 0u;
        ASSERT_GE(up, majority)
            << "seed " << seed << " n " << n << " at t=" << sim.now();
      }
      EXPECT_GT(churn.crashes_injected(), 20u) << "seed " << seed;
      EXPECT_GT(events, 1000u);
    }
  }
}

// ------------------------------------------- asymmetric partitions / heal

TEST(SimPartition, InboundModeBlocksOnlyTrafficIntoMembers) {
  ProbeCluster c({.n = 3, .seed = 2});
  c.sim.start_all();
  c.sim.partition({0}, PartitionMode::kInbound);
  c.probe(1)->env().send(0, ping());  // into the cut: blocked
  c.probe(0)->env().send(1, ping());  // out of the cut: flows
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(c.shared[0].received.empty());
  EXPECT_EQ(c.shared[1].received.size(), 1u);
  EXPECT_EQ(c.sim.net_stats().dropped_partition, 1u);
}

TEST(SimPartition, OutboundModeBlocksOnlyTrafficOutOfMembers) {
  ProbeCluster c({.n = 3, .seed = 2});
  c.sim.start_all();
  c.sim.partition({0}, PartitionMode::kOutbound);
  c.probe(0)->env().send(1, ping());  // out of the cut: blocked
  c.probe(1)->env().send(0, ping());  // into the cut: flows
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(c.shared[1].received.empty());
  EXPECT_EQ(c.shared[0].received.size(), 1u);
}

TEST(SimPartition, HealLinkRepairsOneLinkLeavingTheCut) {
  ProbeCluster c({.n = 3, .seed = 2});
  c.sim.start_all();
  c.sim.partition({0});  // symmetric isolation of p0
  c.sim.heal_link(0, 1);
  c.probe(0)->env().send(1, ping());
  c.probe(1)->env().send(0, ping());
  c.probe(0)->env().send(2, ping());  // the 0<->2 cut is still in place
  c.probe(2)->env().send(0, ping());
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.shared[0].received.size(), 1u);
  EXPECT_EQ(c.shared[1].received.size(), 1u);
  EXPECT_TRUE(c.shared[2].received.empty());
}

TEST(SimPartition, UnpartitionRemovesOnlyThatCutsBlocks) {
  ProbeCluster c({.n = 3, .seed = 2});
  c.sim.start_all();
  c.sim.block_link(1, 2);  // an unrelated one-way block (a flapping link)
  c.sim.partition({0}, PartitionMode::kInbound);
  c.sim.unpartition({0}, PartitionMode::kInbound);
  c.probe(1)->env().send(0, ping());  // the cut is gone
  c.probe(1)->env().send(2, ping());  // the unrelated block is not
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.shared[0].received.size(), 1u);
  EXPECT_TRUE(c.shared[2].received.empty());
}

// ------------------------------------------------- gray failure and skew

TEST(SimGray, RxFactorInflatesOnlyInboundDelay) {
  SimConfig cfg{.n = 3, .seed = 4};
  cfg.net.delay_min = cfg.net.delay_max = millis(10);
  ProbeCluster c(cfg);
  c.sim.start_all();
  c.sim.set_rx_delay_factor(1, 10.0);
  c.probe(0)->env().send(1, ping());  // inbound to the gray node: 100ms
  c.probe(1)->env().send(2, ping());  // outbound from it: nominal 10ms
  c.sim.run_until(millis(50));
  EXPECT_TRUE(c.shared[1].received.empty());
  EXPECT_EQ(c.shared[2].received.size(), 1u);
  c.sim.run_until(millis(110));
  EXPECT_EQ(c.shared[1].received.size(), 1u);
}

TEST(SimGray, TimerScaleSkewsProtocolTimers) {
  ProbeCluster c({.n = 2, .seed = 4});
  c.sim.start_all();
  c.sim.set_timer_scale(0, 3.0);
  bool fired = false;
  c.probe(0)->env().schedule_after(millis(10), [&fired] { fired = true; });
  c.sim.run_until(millis(29));
  EXPECT_FALSE(fired);
  c.sim.run_until(millis(31));
  EXPECT_TRUE(fired);
}

TEST(SimGray, FastClockFiresEarly) {
  ProbeCluster c({.n = 2, .seed = 4});
  c.sim.start_all();
  c.sim.set_timer_scale(0, 0.5);
  bool fired = false;
  c.probe(0)->env().schedule_after(millis(10), [&fired] { fired = true; });
  c.sim.run_until(millis(4));
  EXPECT_FALSE(fired);
  c.sim.run_until(millis(6));
  EXPECT_TRUE(fired);
}

// -------------------------------------------------------------- slow disk

TEST(SimSlowDisk, PendingStorageDelayDefersTheNextSend) {
  SimConfig cfg{.n = 2, .seed = 5};
  cfg.net.delay_min = cfg.net.delay_max = millis(10);
  ProbeCluster c(cfg);
  c.sim.start_all();
  StorageFaultProfile slow;
  slow.op_delay_min_ns = millis(5);
  slow.op_delay_max_ns = millis(5);
  c.sim.storage_faults(0).set_profile(slow);
  c.sim.host(0).faulty_storage().put("k", {1});  // banks a 5ms stall
  c.probe(0)->env().send(1, ping());  // departs at 5ms, arrives at 15ms
  c.sim.run_until(millis(14));
  EXPECT_TRUE(c.shared[1].received.empty());
  c.sim.run_until(millis(16));
  EXPECT_EQ(c.shared[1].received.size(), 1u);
}

TEST(SimSlowDisk, StalledReceiverDefersDelivery) {
  SimConfig cfg{.n = 2, .seed = 5};
  cfg.net.delay_min = cfg.net.delay_max = millis(10);
  ProbeCluster c(cfg);
  c.sim.start_all();
  StorageFaultProfile slow;
  slow.op_delay_min_ns = millis(10);
  slow.op_delay_max_ns = millis(10);
  c.sim.storage_faults(1).set_profile(slow);
  c.sim.host(1).faulty_storage().put("k", {1});  // banks a 10ms stall
  c.probe(0)->env().send(1, ping());
  // The datagram lands at 10ms, but the receiver folds its stall in on
  // arrival and consumes it only at 20ms.
  c.sim.run_until(millis(19));
  EXPECT_TRUE(c.shared[1].received.empty());
  c.sim.run_until(millis(21));
  EXPECT_EQ(c.shared[1].received.size(), 1u);
}

TEST(SimSlowDisk, CrashClearsTheInProgressStall) {
  SimConfig cfg{.n = 2, .seed = 5};
  cfg.net.delay_min = cfg.net.delay_max = millis(10);
  ProbeCluster c(cfg);
  c.sim.start_all();
  StorageFaultProfile slow;
  slow.op_delay_min_ns = seconds(5);
  slow.op_delay_max_ns = seconds(5);
  c.sim.storage_faults(0).set_profile(slow);
  c.sim.host(0).faulty_storage().put("k", {1});  // a monstrous stall
  c.sim.storage_faults(0).set_profile({});
  c.sim.crash(0);  // the reboot clears the device queue
  c.sim.recover(0);
  c.probe(0)->env().send(1, ping());
  c.sim.run_for(millis(20));  // nominal delivery: no leftover stall
  EXPECT_EQ(c.shared[1].received.size(), 1u);
}
