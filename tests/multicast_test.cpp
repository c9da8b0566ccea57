// Tests for total-order multicast to distinct groups (paper §6.4).
//
// Specification checked here: (a) per group, multicast deliveries are
// totally ordered (member sequences are prefixes of each other);
// (b) across groups, any two multicasts that share a destination are
// delivered in the same relative order at every destination; (c) liveness
// through initiator crashes, member crashes, loss and partitions; (d) the
// network boundary: datagrams from outside a group and FILLs naming unknown
// groups are dropped, never ordered; (e) the same node on the real-time
// host, over threads and UDP sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>

#include "core/ab_wire.hpp"
#include "multicast/multicast.hpp"
#include "multicast/multicast_wire.hpp"
#include "net/udp_env.hpp"
#include "sim/simulation.hpp"

using namespace abcast;
using namespace abcast::multicast;
using group::GroupConfig;

namespace {

struct McCluster {
  McCluster(sim::SimConfig sim_cfg, GroupConfig layout_in)
      : sim(sim_cfg), layout(std::move(layout_in)), delivered(sim_cfg.n) {
    sim.set_node_factory([this](Env& env) {
      const ProcessId pid = env.self();
      // A fresh incarnation replays its delivery sequence from scratch.
      delivered[pid].clear();
      return std::make_unique<MulticastNode>(
          env, layout, [this, pid](const McDelivery& d) {
            delivered[pid].push_back(d.id);
          });
    });
    sim.start_all();
  }

  MulticastNode* node(ProcessId p) {
    return static_cast<MulticastNode*>(sim.node(p));
  }

  McId mcast(ProcessId from, std::vector<std::uint32_t> dests,
             Bytes payload = {}) {
    return node(from)->mcast(std::move(payload), std::move(dests));
  }

  /// True once `id` appears in the delivered sequence of every member of
  /// every group in `groups`.
  bool delivered_at_groups(const McId& id,
                           const std::vector<std::uint32_t>& groups) {
    for (const auto g : groups) {
      for (const ProcessId p : layout.members[g]) {
        if (!sim.host(p).is_up()) return false;
        const auto& seq = delivered[p];
        if (std::find(seq.begin(), seq.end(), id) == seq.end()) return false;
      }
    }
    return true;
  }

  bool await(const std::vector<std::pair<McId, std::vector<std::uint32_t>>>&
                 expectations,
             Duration timeout = seconds(120)) {
    return sim.run_until_pred(
        [&] {
          for (const auto& [id, groups] : expectations) {
            if (!delivered_at_groups(id, groups)) return false;
          }
          return true;
        },
        sim.now() + timeout);
  }

  /// (a) per-group prefix consistency; (b) pairwise cross-group order.
  void check_order() {
    for (const auto& group : layout.members) {
      for (std::size_t i = 0; i + 1 < group.size(); ++i) {
        const auto& a = delivered[group[i]];
        const auto& b = delivered[group[i + 1]];
        const std::size_t common = std::min(a.size(), b.size());
        for (std::size_t k = 0; k < common; ++k) {
          ASSERT_EQ(a[k], b[k])
              << "group order diverged between p" << group[i] << " and p"
              << group[i + 1] << " at position " << k;
        }
      }
    }
    // Pairwise order on shared messages, across ALL processes.
    for (ProcessId p = 0; p < sim.n(); ++p) {
      for (ProcessId q = static_cast<ProcessId>(p + 1); q < sim.n(); ++q) {
        std::map<McId, std::size_t> pos;
        for (std::size_t i = 0; i < delivered[p].size(); ++i) {
          pos[delivered[p][i]] = i;
        }
        std::size_t last = 0;
        bool first = true;
        for (const auto& id : delivered[q]) {
          auto it = pos.find(id);
          if (it == pos.end()) continue;
          if (!first) {
            ASSERT_GT(it->second, last)
                << "cross-group order violated between p" << p << " and p"
                << q << " on " << to_string(id);
          }
          last = it->second;
          first = false;
        }
      }
    }
  }

  sim::Simulation sim;
  GroupConfig layout;
  std::vector<std::vector<McId>> delivered;
};

GroupConfig two_groups() {
  return GroupConfig{.n_nodes = 6, .members = {{0, 1, 2}, {3, 4, 5}}};
}
GroupConfig three_groups() {
  return GroupConfig{.n_nodes = 9,
                     .members = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}};
}

Wire fill_wire(std::uint32_t from_group, std::vector<std::uint32_t> dests) {
  FillMsg fill;
  fill.id = McId{3, 1};
  fill.from_group = from_group;
  fill.proposed_ts = 1;
  fill.dests = std::move(dests);
  return make_wire(MsgType::kMgFill, fill);
}

}  // namespace

TEST(Multicast, RejectsLayoutsWithoutOneGroupPerProcess) {
  // p1 in two rows would need two multicast stacks.
  EXPECT_THROW(
      McCluster({.n = 3, .seed = 12},
                GroupConfig{.n_nodes = 3, .members = {{0, 1}, {1, 2}}}),
      InvariantViolation);
  // p2 in no row has no group to anchor its multicasts in.
  EXPECT_THROW(McCluster({.n = 3, .seed = 12},
                         GroupConfig{.n_nodes = 3, .members = {{0, 1}}}),
               InvariantViolation);
}

TEST(Multicast, SingleGroupFastPath) {
  McCluster c({.n = 6, .seed = 1}, two_groups());
  const McId id = c.mcast(0, {0});
  ASSERT_TRUE(c.await({{id, {0}}}));
  // The other group never hears about it.
  c.sim.run_for(millis(500));
  EXPECT_TRUE(c.delivered[3].empty());
  c.check_order();
}

TEST(Multicast, TwoGroupMessageReachesBothGroups) {
  McCluster c({.n = 6, .seed = 2}, two_groups());
  const McId id = c.mcast(1, {0, 1}, Bytes{'x'});
  ASSERT_TRUE(c.await({{id, {0, 1}}}));
  c.check_order();
  // All six processes delivered exactly this one message.
  for (ProcessId p = 0; p < 6; ++p) {
    EXPECT_EQ(c.delivered[p], std::vector<McId>{id});
  }
}

TEST(Multicast, SharedMessagesKeepOneRelativeOrderEverywhere) {
  McCluster c({.n = 6, .seed = 3}, two_groups());
  std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
  for (int i = 0; i < 12; ++i) {
    // Alternate initiators across both groups; all to both groups.
    const ProcessId from = static_cast<ProcessId>(i % 6);
    expect.push_back({c.mcast(from, {0, 1}), {0, 1}});
    c.sim.run_for(millis(25));
  }
  ASSERT_TRUE(c.await(expect));
  c.check_order();
  // Both groups delivered the full set (12 messages each process).
  for (ProcessId p = 0; p < 6; ++p) {
    EXPECT_EQ(c.delivered[p].size(), 12u);
  }
}

TEST(Multicast, MixedSingleAndMultiGroupTraffic) {
  McCluster c({.n = 6, .seed = 4}, two_groups());
  std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
  for (int i = 0; i < 8; ++i) {
    expect.push_back({c.mcast(0, {0}), {0}});          // group-0 local
    expect.push_back({c.mcast(3, {1}), {1}});          // group-1 local
    expect.push_back({c.mcast(static_cast<ProcessId>(i % 6), {0, 1}),
                      {0, 1}});                        // shared
    c.sim.run_for(millis(30));
  }
  ASSERT_TRUE(c.await(expect));
  c.check_order();
}

TEST(Multicast, ThreeGroupsWithOverlappingDestinations) {
  McCluster c({.n = 9, .seed = 5}, three_groups());
  std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
  expect.push_back({c.mcast(0, {0, 1}), {0, 1}});
  expect.push_back({c.mcast(3, {1, 2}), {1, 2}});
  expect.push_back({c.mcast(6, {0, 1, 2}), {0, 1, 2}});
  expect.push_back({c.mcast(1, {0, 2}), {0, 2}});
  ASSERT_TRUE(c.await(expect));
  c.check_order();
}

TEST(Multicast, MemberCrashRecoveryReplaysMulticastState) {
  McCluster c({.n = 6, .seed = 6}, two_groups());
  std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
  for (int i = 0; i < 5; ++i) {
    expect.push_back({c.mcast(0, {0, 1}), {0, 1}});
    c.sim.run_for(millis(60));
  }
  ASSERT_TRUE(c.await(expect));
  c.sim.crash(4);
  c.sim.recover(4);
  // p4's multicast state (clock, delivered set) rebuilds from AB replay.
  ASSERT_TRUE(c.await(expect));
  c.check_order();
  EXPECT_EQ(c.delivered[4].size(), 5u);
}

TEST(Multicast, CrashDuringExchangeStillDeliversEverywhere) {
  McCluster c({.n = 6, .seed = 7}, two_groups());
  const McId id = c.mcast(2, {0, 1});
  // Crash the initiator almost immediately: its group may already have the
  // PROPOSE in flight; the fill exchange must finish the job without it.
  c.sim.run_for(millis(40));
  c.sim.crash(2);
  const bool delivered_without_initiator = c.await(
      {{id, {1}}}, seconds(60));
  c.sim.recover(2);
  if (!delivered_without_initiator) {
    // The PROPOSE died with the initiator's volatile state before being
    // ordered — legal (same excuse as a crashed A-broadcast caller). Then
    // nobody ever delivers it.
    c.sim.run_for(seconds(5));
    EXPECT_TRUE(c.delivered[3].empty());
  } else {
    ASSERT_TRUE(c.await({{id, {0, 1}}}));
  }
  c.check_order();
}

TEST(Multicast, PartitionedGroupsCatchUpAfterHeal) {
  McCluster c({.n = 6, .seed = 8}, two_groups());
  // Cut every inter-group link; intra-group quorums stay intact.
  c.sim.partition({0, 1, 2});
  const McId id = c.mcast(0, {0, 1});
  c.sim.run_for(seconds(2));
  // Group 0 proposed but cannot finalize (needs group 1's proposal); group
  // 1 has never heard of the message.
  EXPECT_TRUE(c.delivered[0].empty());
  EXPECT_TRUE(c.delivered[3].empty());
  c.sim.heal_partition();
  ASSERT_TRUE(c.await({{id, {0, 1}}}));
  c.check_order();
}

TEST(Multicast, SurvivesLossyNetwork) {
  sim::SimConfig cfg{.n = 6, .seed = 9};
  cfg.net.drop_prob = 0.15;
  cfg.net.dup_prob = 0.05;
  McCluster c(cfg, two_groups());
  std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
  for (int i = 0; i < 8; ++i) {
    expect.push_back({c.mcast(static_cast<ProcessId>(i % 6), {0, 1}),
                      {0, 1}});
    c.sim.run_for(millis(50));
  }
  ASSERT_TRUE(c.await(expect, seconds(240)));
  c.check_order();
}

TEST(Multicast, GroupClocksStayReplicated) {
  McCluster c({.n = 6, .seed = 10}, two_groups());
  std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
  for (int i = 0; i < 6; ++i) {
    expect.push_back({c.mcast(0, {0, 1}), {0, 1}});
    c.sim.run_for(millis(40));
  }
  ASSERT_TRUE(c.await(expect));
  c.sim.run_for(seconds(1));
  // The logical clock is replicated group state: equal within each group.
  EXPECT_EQ(c.node(0)->service().clock(), c.node(1)->service().clock());
  EXPECT_EQ(c.node(1)->service().clock(), c.node(2)->service().clock());
  EXPECT_EQ(c.node(3)->service().clock(), c.node(4)->service().clock());
  EXPECT_EQ(c.node(0)->service().pending_count(), 0u);
}

TEST(Multicast, RejectsBadUsage) {
  McCluster c({.n = 6, .seed = 11}, two_groups());
  EXPECT_THROW(c.mcast(0, {}), InvariantViolation);       // no destinations
  EXPECT_THROW(c.mcast(0, {1}), InvariantViolation);      // own group absent
  EXPECT_THROW(c.mcast(0, {0, 9}), InvariantViolation);   // unknown group
}

TEST(Multicast, PropertySweepUnderChurnAndLoss) {
  // Random member churn (never the initiator, never a full group) + loss;
  // safety checked by check_order, liveness by full delivery.
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    sim::SimConfig cfg{.n = 6, .seed = seed};
    cfg.net.drop_prob = 0.08;
    McCluster c(cfg, two_groups());

    std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
    Rng rng(seed);
    int crashes = 0;
    for (int i = 0; i < 15; ++i) {
      expect.push_back({c.mcast(0, {0, 1}), {0, 1}});
      c.sim.run_for(millis(70));
      // Crash/recover one non-initiator member per group occasionally.
      if (rng.chance(0.4)) {
        const ProcessId victim =
            static_cast<ProcessId>(rng.chance(0.5) ? 2 : 4);
        if (c.sim.host(victim).is_up()) {
          c.sim.crash(victim);
          c.sim.recover_at(c.sim.now() + millis(300), victim);
          crashes += 1;
        }
      }
    }
    c.sim.run_for(seconds(1));
    for (ProcessId p = 0; p < 6; ++p) {
      if (!c.sim.host(p).is_up()) c.sim.recover(p);
    }
    ASSERT_TRUE(c.await(expect, seconds(240)))
        << "seed " << seed << " after " << crashes << " crashes";
    c.check_order();
  }
}

// ------------------------------------------- the network boundary (FILLs)

TEST(Multicast, DropsGroupTrafficFromNonMembers) {
  McCluster c({.n = 6, .seed = 13}, two_groups());
  auto& ab = c.node(0)->stack().ab();
  const auto before = ab.metrics().gossip_received.load();
  // A group-0 stack message whose global sender, p4, serves group 1.
  c.node(0)->on_message(
      4, group::wrap(0, make_wire(MsgType::kAbGossip, core::GossipMsg{})));
  EXPECT_EQ(ab.metrics().gossip_received.load(), before);
}

TEST(Multicast, DropsFillsFromUnknownOrForeignGroups) {
  McCluster c({.n = 6, .seed = 14}, two_groups());
  auto* n0 = c.node(0);
  n0->on_message(3, fill_wire(9, {0, 9}));  // no group 9
  n0->on_message(1, fill_wire(1, {0, 1}));  // p1 does not serve group 1
  n0->on_message(3, fill_wire(1, {0}));     // group 1 not a destination
  n0->on_message(3, Wire{MsgType::kMgFill, Bytes{0x01}});  // truncated
  EXPECT_EQ(n0->stack().ab().metrics().broadcasts.load(), 0u);
  EXPECT_EQ(n0->service().pending_count(), 0u);
}

TEST(Multicast, DropsFillNamingUnknownDestination) {
  McCluster c({.n = 6, .seed = 15}, two_groups());
  // Bootstrapping this FILL would A-broadcast a PROPOSE for group 99 into
  // group 0's order: a decided message fill_tick cannot serve, replayed on
  // every recovery. Checked before any simulated time passes.
  c.node(0)->on_message(3, fill_wire(1, {0, 1, 99}));
  EXPECT_EQ(c.node(0)->stack().ab().metrics().broadcasts.load(), 0u);
  // The group still orders well-formed multicasts afterwards.
  const McId id = c.mcast(3, {0, 1});
  ASSERT_TRUE(c.await({{id, {0, 1}}}));
  c.check_order();
}

// ---------------------------------------- multicast on the real-time host

// The multicast node is Env-agnostic: the same code runs over threads, the
// steady clock and loopback sockets, here with 5% of the datagrams dropped.
// Six multicasts to both groups, one per initiator: every process delivers
// all six, in one order.
TEST(Multicast, RunsOnTheRealTimeRuntime) {
  const GroupConfig layout = two_groups();
  std::mutex mu;
  std::vector<std::vector<McId>> delivered(6);
  net::UdpCluster cluster(6, {.seed = 30, .drop_prob = 0.05});
  cluster.set_node_factory([&](Env& env) {
    const ProcessId pid = env.self();
    return std::make_unique<MulticastNode>(
        env, layout, [&mu, &delivered, pid](const McDelivery& d) {
          std::lock_guard<std::mutex> lock(mu);
          delivered[pid].push_back(d.id);
        });
  });
  cluster.start_all();
  for (ProcessId p = 0; p < 6; ++p) {
    auto& host = cluster.host(p);
    ASSERT_TRUE(host.call([&host] {
      static_cast<MulticastNode*>(host.node_unsafe())->mcast({}, {0, 1});
    }));
  }
  const auto all_arrived = [&mu, &delivered] {
    std::lock_guard<std::mutex> lock(mu);
    return std::all_of(delivered.begin(), delivered.end(),
                       [](const auto& seq) { return seq.size() >= 6; });
  };
  ASSERT_TRUE(cluster.wait_for(all_arrived, seconds(60)));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(delivered[0].size(), 6u);
  for (ProcessId p = 1; p < 6; ++p) {
    EXPECT_EQ(delivered[p], delivered[0]) << "p" << p;
  }
}

TEST(Multicast, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    sim::SimConfig cfg{.n = 6, .seed = seed};
    cfg.net.drop_prob = 0.1;
    McCluster c(cfg, two_groups());
    std::vector<std::pair<McId, std::vector<std::uint32_t>>> expect;
    for (int i = 0; i < 8; ++i) {
      expect.push_back({c.mcast(static_cast<ProcessId>(i % 6), {0, 1}),
                        {0, 1}});
      c.sim.run_for(millis(40));
    }
    c.await(expect, seconds(120));
    return c.delivered[0];
  };
  const auto a = run(40);
  EXPECT_EQ(a, run(40));
  EXPECT_EQ(a.size(), 8u);
}
