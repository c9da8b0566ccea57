// Tests for the multi-group sharding layer (DESIGN.md §13): group layout
// and routing, envelope demux, partitioned KV over N independent AB groups,
// cross-shard atomic pairs (two-group deterministic commit), crash-recovery
// of holds, and the sharded trace checker over real runs.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "apps/kv_store.hpp"
#include "common/rng.hpp"
#include "group/group_config.hpp"
#include "group/group_env.hpp"
#include "group/sharded_cluster.hpp"
#include "obs/trace_check.hpp"
#include "scenario/load.hpp"
#include "scenario/runner.hpp"

using namespace abcast;
using namespace abcast::group;
using apps::KvCommand;
using apps::KvStore;

namespace {

ShardedClusterConfig make_config(std::uint32_t n, std::uint32_t groups,
                                 std::uint64_t seed) {
  ShardedClusterConfig cfg;
  cfg.sim.n = n;
  cfg.sim.seed = seed;
  cfg.sim.trace_capacity = 1 << 16;
  cfg.node.layout = GroupConfig::uniform(n, groups);
  return cfg;
}

/// Strict offline audit of a quiesced sharded run; fails the test on any
/// violation so the first diagnostic is visible.
void expect_trace_ok(ShardedCluster& c, std::uint32_t groups) {
  ASSERT_EQ(c.trace_dropped(), 0u);
  obs::CheckOptions check;
  check.require_quiesced = true;
  check.basic_protocol = true;
  const auto report =
      obs::check_sharded_trace(c.collect_trace(), groups, check);
  for (const auto& v : report.violations) ADD_FAILURE() << obs::to_string(v);
}

}  // namespace

// ---- layout & routing ----------------------------------------------------

TEST(GroupConfig, UniformLayoutServesEveryGroupEverywhere) {
  const auto layout = GroupConfig::uniform(3, 4);
  ASSERT_TRUE(layout.valid());
  EXPECT_EQ(layout.group_count(), 4u);
  for (ProcessId p = 0; p < 3; ++p) {
    for (std::uint32_t g = 0; g < 4; ++g) {
      EXPECT_TRUE(layout.serves(p, g));
    }
    EXPECT_EQ(layout.groups_of(p).size(), 4u);
  }
  // Member indices are a permutation-free enumeration of the node set.
  for (std::uint32_t g = 0; g < 4; ++g) {
    std::set<std::uint32_t> idx;
    for (ProcessId p = 0; p < 3; ++p) idx.insert(*layout.member_index(g, p));
    EXPECT_EQ(idx.size(), 3u);
  }
}

TEST(GroupConfig, DisjointRowsPlaceEachNodeInOneGroup) {
  const GroupConfig layout{.n_nodes = 6, .members = {{0, 1, 2}, {3, 4, 5}}};
  ASSERT_TRUE(layout.valid());
  EXPECT_EQ(layout.group_count(), 2u);
  for (ProcessId p = 0; p < 6; ++p) {
    EXPECT_EQ(layout.groups_of(p), std::vector<std::uint32_t>{p / 3});
  }
  EXPECT_EQ(layout.member_index(1, 4), std::optional<ProcessId>{1});
  // A non-member and an unknown group are answers, not aborts.
  EXPECT_EQ(layout.member_index(0, 4), std::nullopt);
  EXPECT_EQ(layout.member_index(9, 0), std::nullopt);
  EXPECT_FALSE(layout.serves(4, 0));
  EXPECT_FALSE((GroupConfig{.n_nodes = 6, .members = {}}).valid());
}

TEST(GroupEnvelope, UnwrapChecksGroupAndSenderAgainstTheLayout) {
  const GroupConfig layout{.n_nodes = 6, .members = {{0, 1, 2}, {3, 4, 5}}};
  const Wire inner{MsgType::kAbGossip, Bytes{1, 2, 3}};
  const auto opened = unwrap(layout, 5, wrap(1, inner));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->group, 1u);
  EXPECT_EQ(opened->from, 2u);  // p5 is member 2 of group 1
  EXPECT_EQ(opened->inner.type, inner.type);
  EXPECT_EQ(encode_to_bytes(opened->inner), encode_to_bytes(inner));

  EXPECT_FALSE(unwrap(layout, 0, wrap(1, inner)));  // p0 is not in group 1
  EXPECT_FALSE(unwrap(layout, 7, wrap(1, inner)));  // no such node
  EXPECT_FALSE(unwrap(layout, 5, wrap(2, inner)));  // no such group
  EXPECT_FALSE(unwrap(layout, 5, inner));           // not an envelope
  EXPECT_FALSE(unwrap(layout, 5, Wire{kGroupEnvelope, Bytes{0x01}}));
}

// A group stack's datagram limit is its host's less the envelope: a payload
// of exactly the stack's limit seals into a payload of exactly the host's,
// which the host carries; one byte more is dropped as oversize.
TEST(GroupEnvelope, GroupEnvLimitLeavesRoomForTheEnvelope) {
  struct Idle final : NodeApp {
    void start(bool) override {}
    void on_message(ProcessId, const Wire&) override {}
  };
  constexpr std::size_t kHostLimit = 1000;
  sim::SimConfig cfg{.n = 3, .seed = 1};
  cfg.net.max_datagram_bytes = kHostLimit;
  sim::Simulation sim(cfg);
  sim.set_node_factory([](Env&) { return std::make_unique<Idle>(); });
  sim.start_all();

  GroupHostEnv env(sim.host(1), GroupConfig::uniform(3, 2), /*gid=*/1);
  const std::size_t limit = env.max_datagram_bytes();
  EXPECT_EQ(limit, kHostLimit - 10);
  const Wire full{MsgType::kAbGossip, Bytes(limit, 0x5A)};
  EXPECT_EQ(wrap(1, full).payload.size(), kHostLimit);

  env.send(0, full);
  sim.run_for(seconds(1));
  EXPECT_EQ(sim.net_stats().delivered, 1u);
  EXPECT_EQ(sim.net_stats().dropped_oversize, 0u);
  env.send(0, Wire{MsgType::kAbGossip, Bytes(limit + 1, 0x5A)});
  sim.run_for(seconds(1));
  EXPECT_EQ(sim.net_stats().delivered, 1u);
  EXPECT_EQ(sim.net_stats().dropped_oversize, 1u);
}

TEST(GroupRouter, KeyHashIsDeterministicAndInRange) {
  const auto layout = GroupConfig::uniform(3, 4);
  const GroupRouter router(layout);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::uint32_t g = router.group_of_key(key);
    EXPECT_LT(g, 4u);
    EXPECT_EQ(g, router.group_of_key(key));  // stable
  }
}

// The satellite's router-balance check: a uniform keyed workload must land
// on every group with no group starving or hogging (chi-square-free bound:
// each group within [half, double] of the fair share).
TEST(GroupRouter, UniformKeyedLoadBalancesAcrossGroups) {
  const auto layout = GroupConfig::uniform(3, 4);
  const GroupRouter router(layout);
  Rng rng(42);
  std::map<std::uint32_t, std::uint64_t> arrivals;
  constexpr std::uint64_t kDraws = 8000;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    arrivals[router.group_of_key(scenario::pick_key(rng, 256, 0.0))] += 1;
  }
  const std::uint64_t fair = kDraws / 4;
  ASSERT_EQ(arrivals.size(), 4u) << "some group received no traffic";
  for (const auto& [g, count] : arrivals) {
    EXPECT_GT(count, fair / 2) << "group " << g << " starved";
    EXPECT_LT(count, fair * 2) << "group " << g << " hogged";
  }
}

TEST(GroupRouter, HotKeySkewConcentratesTraffic) {
  Rng rng(7);
  std::set<std::string> hot_keys;
  std::uint64_t hot_draws = 0;
  constexpr std::uint64_t kDraws = 4000;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    // keys=256 => hot subset is the first 16 keys.
    const std::string k = scenario::pick_key(rng, 256, 0.9);
    std::uint32_t idx = 0;
    ASSERT_EQ(k.front(), 'k');
    idx = static_cast<std::uint32_t>(std::stoul(k.substr(1)));
    if (idx < 16) {
      hot_draws += 1;
      hot_keys.insert(k);
    }
  }
  // ~90% of draws plus uniform spillover should hit the 16-key hot set.
  EXPECT_GT(hot_draws, kDraws * 8 / 10);
  EXPECT_LE(hot_keys.size(), 16u);
}

// ---- sharded cluster: basic ops ------------------------------------------

TEST(ShardedKv, PartitionsAndConvergesAcrossGroups) {
  ShardedCluster c(make_config(3, 4, 101));
  c.start_all();

  std::set<std::uint32_t> groups_hit;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto attempt = c.submit_may_crash(
        static_cast<ProcessId>(i % 3), key,
        KvCommand::put(key, "v" + std::to_string(i)));
    ASSERT_TRUE(attempt.completed);
    groups_hit.insert(attempt.group);
  }
  EXPECT_EQ(groups_hit.size(), 4u) << "40 distinct keys must hit all groups";
  ASSERT_TRUE(c.await_quiesced());

  // Every key readable at every node, from the owning shard.
  auto* n0 = c.node(0);
  ASSERT_NE(n0, nullptr);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::uint32_t g = n0->router().group_of_key(key);
    EXPECT_EQ(n0->shard(g).kv().get(key).value_or("MISSING"),
              "v" + std::to_string(i));
  }
  // Replica convergence per shard (asserts equality across nodes).
  for (std::uint32_t g = 0; g < 4; ++g) c.shard_digest(g);
  // Aggregate order length: every submission ordered exactly once.
  EXPECT_EQ(c.aggregate_delivered(), 40u);
  expect_trace_ok(c, 4);
}

TEST(ShardedKv, EnvelopeDemuxDropsGarbageNotCrashes) {
  ShardedCluster c(make_config(3, 2, 103));
  c.start_all();
  // Hand the demux a non-envelope type, an unknown group, a truncated
  // envelope, and an envelope from a node outside the layout; all must be
  // counted, none may throw.
  auto* n0 = c.node(0);
  ASSERT_NE(n0, nullptr);
  const Wire gossip{MsgType::kAbGossip, Bytes{}};
  n0->on_message(1, Wire{MsgType::kAbGossip, Bytes{1, 2, 3}});
  n0->on_message(1, wrap(9, gossip));
  n0->on_message(1, Wire{kGroupEnvelope, Bytes{0x01}});
  n0->on_message(7, wrap(0, gossip));
  EXPECT_EQ(n0->metrics().envelope_drops.load(), 4u);

  const auto a = c.submit_may_crash(0, "x", KvCommand::put("x", "1"));
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(c.await_quiesced());
  EXPECT_GT(n0->metrics().envelopes_rx.load(), 0u);
}

// ---- cross-shard pairs ---------------------------------------------------

TEST(ShardedKv, PairAppliesAtomicallyInBothGroups) {
  ShardedCluster c(make_config(3, 4, 105));
  c.start_all();
  auto* n0 = c.node(0);
  ASSERT_NE(n0, nullptr);
  // Pick two keys owned by different groups.
  std::string key_a = "a0", key_b;
  const std::uint32_t ga = n0->router().group_of_key(key_a);
  for (int i = 0;; ++i) {
    key_b = "b" + std::to_string(i);
    if (n0->router().group_of_key(key_b) != ga) break;
  }

  const auto pair = c.submit_pair_may_crash(
      0, key_a, KvCommand::put(key_a, "left"), key_b,
      KvCommand::put(key_b, "right"));
  ASSERT_TRUE(pair.completed);
  EXPECT_NE(pair.group_a, pair.group_b);
  ASSERT_TRUE(c.await_quiesced());

  for (ProcessId p = 0; p < 3; ++p) {
    auto* n = c.node(p);
    ASSERT_NE(n, nullptr);
    // Resolve owning shards through the router: PairAttempt's group_a is
    // the numerically lower group, not necessarily key_a's.
    EXPECT_EQ(n->shard(ga).kv().get(key_a).value_or(""), "left");
    EXPECT_EQ(n->shard(n->router().group_of_key(key_b)).kv().get(key_b)
                  .value_or(""),
              "right");
    EXPECT_EQ(n->metrics().pair_applies.load(), 2u);  // one per owning shard
  }
  expect_trace_ok(c, 4);
}

TEST(ShardedKv, SameGroupPairAppliesBothCommandsBackToBack) {
  ShardedCluster c(make_config(3, 2, 107));
  c.start_all();
  auto* n0 = c.node(0);
  ASSERT_NE(n0, nullptr);
  // Find two keys in the SAME group.
  const std::string key_a = "s0";
  const std::uint32_t g = n0->router().group_of_key(key_a);
  std::string key_b;
  for (int i = 1;; ++i) {
    key_b = "s" + std::to_string(i);
    if (n0->router().group_of_key(key_b) == g) break;
  }
  const auto pair = c.submit_pair_may_crash(
      1, key_a, KvCommand::put(key_a, "one"), key_b,
      KvCommand::put(key_b, "two"));
  ASSERT_TRUE(pair.completed);
  EXPECT_EQ(pair.group_a, pair.group_b);
  ASSERT_TRUE(c.await_quiesced());
  EXPECT_EQ(c.node(2)->shard(g).kv().get(key_a).value_or(""), "one");
  EXPECT_EQ(c.node(2)->shard(g).kv().get(key_b).value_or(""), "two");
  expect_trace_ok(c, 2);
}

TEST(ShardedKv, ManyPairsInterleavedWithPlainOpsConverge) {
  ShardedCluster c(make_config(3, 4, 109));
  c.start_all();
  std::uint64_t pairs = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (i % 4 == 3) {
      const std::string other = "k" + std::to_string(i * 31 + 7);
      const auto a = c.submit_pair_may_crash(
          static_cast<ProcessId>(i % 3), key, KvCommand::add(key, 1), other,
          KvCommand::add(other, 1));
      ASSERT_TRUE(a.completed);
      pairs += 1;
    } else {
      ASSERT_TRUE(c.submit_may_crash(static_cast<ProcessId>(i % 3), key,
                                     KvCommand::add(key, 1))
                      .completed);
    }
  }
  ASSERT_TRUE(c.await_quiesced());
  for (std::uint32_t g = 0; g < 4; ++g) c.shard_digest(g);
  EXPECT_GT(pairs, 0u);
  expect_trace_ok(c, 4);
}

// ---- crash-recovery of holds ---------------------------------------------

// A replica that crashes between partner deliveries must reconstruct its
// hold state from the per-group Agreed replay: after recovery both shard
// effects are visible and replicas converge.
TEST(ShardedKv, HoldsSurviveCrashRecovery) {
  ShardedCluster c(make_config(3, 2, 111));
  c.start_all();
  auto* n0 = c.node(0);
  ASSERT_NE(n0, nullptr);
  std::string key_a = "a0", key_b;
  const std::uint32_t ga = n0->router().group_of_key(key_a);
  for (int i = 0;; ++i) {
    key_b = "b" + std::to_string(i);
    if (n0->router().group_of_key(key_b) != ga) break;
  }

  // Seed some plain traffic so recovery has an order to replay.
  for (int i = 0; i < 10; ++i) {
    const std::string key = "seed" + std::to_string(i);
    ASSERT_TRUE(c.submit_may_crash(static_cast<ProcessId>(i % 3), key,
                                   KvCommand::put(key, "s"))
                    .completed);
  }
  const auto pair = c.submit_pair_may_crash(
      0, key_a, KvCommand::put(key_a, "L"), key_b,
      KvCommand::put(key_b, "R"));
  ASSERT_TRUE(pair.completed);

  // Crash node 2 immediately — depending on timing it holds one side, both,
  // or neither; every case must recover into the full pair effect.
  c.sim().crash(2);
  c.sim().run_for(millis(50));
  ASSERT_TRUE(c.sim().recover(2));
  ASSERT_TRUE(c.await_quiesced());

  for (ProcessId p = 0; p < 3; ++p) {
    auto* n = c.node(p);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->shard(ga).kv().get(key_a).value_or(""), "L");
    EXPECT_EQ(n->shard(n->router().group_of_key(key_b)).kv().get(key_b)
                  .value_or(""),
              "R");
  }
  for (std::uint32_t g = 0; g < 2; ++g) c.shard_digest(g);
  expect_trace_ok(c, 2);
}

// Checkpoint-installed recovery: with the alternative protocol truncating
// the Agreed history, a lagging rejoiner adopts an application checkpoint
// whose serialized pending queue must re-register holds with the tracker.
TEST(ShardedKv, CheckpointCarriesPendingPairState) {
  auto cfg = make_config(3, 2, 113);
  cfg.node.stack.ab = core::Options::alternative();
  cfg.node.stack.ab.checkpoint_period = millis(30);
  cfg.node.stack.ab.delta = 2;
  ShardedCluster c(cfg);
  c.start_all();
  auto* n0 = c.node(0);
  ASSERT_NE(n0, nullptr);
  std::string key_a = "a0", key_b;
  const std::uint32_t ga = n0->router().group_of_key(key_a);
  for (int i = 0;; ++i) {
    key_b = "b" + std::to_string(i);
    if (n0->router().group_of_key(key_b) != ga) break;
  }

  c.sim().crash(2);
  // While node 2 is down, run pairs + traffic so checkpoints fold history
  // past what a replay could rebuild.
  for (int i = 0; i < 30; ++i) {
    const std::string key = "w" + std::to_string(i);
    ASSERT_TRUE(c.submit_may_crash(static_cast<ProcessId>(i % 2), key,
                                   KvCommand::put(key, "x"))
                    .completed);
  }
  const auto pair = c.submit_pair_may_crash(
      0, key_a, KvCommand::put(key_a, "L"), key_b,
      KvCommand::put(key_b, "R"));
  ASSERT_TRUE(pair.completed);
  c.sim().run_for(millis(300));  // let checkpoints + truncation happen

  ASSERT_TRUE(c.sim().recover(2));
  ASSERT_TRUE(c.await_quiesced());
  auto* n2 = c.node(2);
  ASSERT_NE(n2, nullptr);
  EXPECT_EQ(n2->shard(ga).kv().get(key_a).value_or(""), "L");
  EXPECT_EQ(n2->shard(n2->router().group_of_key(key_b)).kv().get(key_b)
                .value_or(""),
            "R");
  for (std::uint32_t g = 0; g < 2; ++g) c.shard_digest(g);

  obs::CheckOptions check;
  check.require_quiesced = true;  // alternative protocol: ab/ writes legal
  ASSERT_EQ(c.trace_dropped(), 0u);
  const auto report = obs::check_sharded_trace(c.collect_trace(), 2, check);
  for (const auto& v : report.violations) ADD_FAILURE() << obs::to_string(v);
}

// ---- sharded scenarios ---------------------------------------------------

TEST(ShardedScenario, GroupsFieldRoundTripsAndDefaultsStayByteIdentical) {
  scenario::Scenario s = scenario::generate_scenario(12);
  // groups/keys defaults serialize to the exact pre-sharding line.
  const std::string line = s.serialize();
  EXPECT_EQ(line.find("groups="), std::string::npos);
  EXPECT_EQ(line.find("keys="), std::string::npos);

  s.groups = 4;
  scenario::LoadClause keyed;
  keyed.keys = 128;
  keyed.hot = 0.25;
  s.clauses.emplace_back(keyed);
  const std::string sharded_line = s.serialize();
  EXPECT_NE(sharded_line.find("groups=4"), std::string::npos);
  EXPECT_NE(sharded_line.find("keys=128"), std::string::npos);
  std::string err;
  const auto parsed = scenario::Scenario::parse(sharded_line, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, s);
  EXPECT_EQ(parsed->serialize(), sharded_line);
}

TEST(ShardedScenario, RunnerDrivesShardedStackUnderFaults) {
  scenario::Scenario s;
  s.seed = 99;
  s.n = 3;
  s.groups = 3;
  s.horizon = millis(500);
  scenario::LoadClause load;
  load.at = millis(10);
  load.hold = millis(380);
  load.mean_gap = millis(4);
  load.clients = 6;
  load.keys = 96;
  s.clauses.emplace_back(load);
  scenario::BurstClause burst;  // crash two nodes mid-load
  burst.at = millis(150);
  burst.victims = {1, 2};
  burst.down = millis(80);
  s.clauses.emplace_back(burst);

  const auto result = scenario::run_scenario(s);
  EXPECT_TRUE(result.ok()) << result.failure;
  EXPECT_GT(result.load.submitted, 0u);
  EXPECT_GT(result.load.pairs_submitted, 0u);
  EXPECT_GT(result.delivered_global, 0u);
  // Determinism regression: the digest is a pure function of the scenario.
  const auto again = scenario::run_scenario(s);
  EXPECT_TRUE(again.ok()) << again.failure;
  EXPECT_EQ(again.order_digest, result.order_digest);
}
