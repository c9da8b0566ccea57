// Acceptance sweep for cross-shard commit under churn: 100 randomized
// sharded scenarios covering both consensus engines, both protocol
// variants, and both gossip modes (the trace_sweep seed-parity
// convention). Each seed drives keyed traffic plus cross-shard pairs into
// a 2-group cluster and crashes a replica of EACH owning shard mid-pair —
// before the partner hold can land — so recovery must rebuild hold state
// from the Agreed replay. Every run must converge (shard digests equal
// across replicas) and its merged trace must pass the strict sharded
// checker: per-group total order AND the CrossShard atomicity rule.
#include <gtest/gtest.h>

#include <string>

#include "apps/kv_store.hpp"
#include "common/rng.hpp"
#include "group/sharded_cluster.hpp"
#include "obs/trace_check.hpp"

using namespace abcast;
using namespace abcast::group;
using apps::KvCommand;

namespace {

constexpr std::uint32_t kN = 3;
constexpr std::uint32_t kGroups = 2;

void run_seed(std::uint64_t seed) {
  ShardedClusterConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = seed * 0x9e3779b9ull + 5;
  cfg.sim.trace_capacity = 1 << 16;
  cfg.node.layout = GroupConfig::uniform(kN, kGroups);
  cfg.node.stack.engine =
      (seed % 2) ? ConsensusKind::kCoord : ConsensusKind::kPaxos;
  const bool alternative = (seed / 2) % 2;
  if (alternative) {
    cfg.node.stack.ab = core::Options::alternative();
    cfg.node.stack.ab.checkpoint_period = millis(50);
  }
  cfg.node.stack.ab.digest_gossip = (seed / 4) % 2;
  ShardedCluster c(cfg);
  c.start_all();
  Rng rng(seed * 7919 + 29);

  // Two keys with distinct owning groups (kGroups == 2, so "different
  // group" means the other one).
  auto* n0 = c.node(0);
  ASSERT_NE(n0, nullptr);
  std::string key_a = "p0", key_b;
  const std::uint32_t ga = n0->router().group_of_key(key_a);
  for (int i = 1;; ++i) {
    key_b = "p" + std::to_string(i);
    if (n0->router().group_of_key(key_b) != ga) break;
  }

  // Background keyed traffic on every node.
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::string key = "w" + std::to_string(rng.uniform(0, 31));
    c.submit_may_crash(static_cast<ProcessId>(i % kN), key,
                       KvCommand::add(key, 1));
  }

  // The churn: submit a cross-shard pair, then immediately crash one
  // replica per owning shard (uniform layout: every node serves both
  // groups, so two distinct nodes cover both). The crash lands before the
  // pair's consensus rounds finish — mid-pair by construction.
  const auto submitter = static_cast<ProcessId>(seed % kN);
  const auto pair = c.submit_pair_may_crash(
      submitter, key_a, KvCommand::put(key_a, "L" + std::to_string(seed)),
      key_b, KvCommand::put(key_b, "R" + std::to_string(seed)));
  const auto victim_a = static_cast<ProcessId>((submitter + 1) % kN);
  const auto victim_b = static_cast<ProcessId>((submitter + 2) % kN);
  if (c.sim().host(victim_a).is_up()) c.sim().crash(victim_a);
  c.sim().run_for(millis(rng.uniform(5, 60)));
  if (c.sim().host(victim_b).is_up()) c.sim().crash(victim_b);
  c.sim().run_for(millis(rng.uniform(20, 120)));

  // A second pair while part of the cluster is down (may or may not
  // complete — the submitter itself might have been crashed above).
  if (c.sim().host(submitter).is_up()) {
    c.submit_pair_may_crash(submitter, key_b,
                            KvCommand::add(key_b + "/cnt", 1), key_a,
                            KvCommand::add(key_a + "/cnt", 1));
  }

  // Recovery pump: every node must come (and stay) up.
  for (int tries = 0; tries < 50; ++tries) {
    bool all_up = true;
    for (ProcessId p = 0; p < kN; ++p) {
      if (!c.sim().host(p).is_up()) {
        all_up = false;
        c.sim().recover(p);
      }
    }
    if (all_up) break;
    c.sim().run_for(millis(10));
  }
  for (ProcessId p = 0; p < kN; ++p) {
    ASSERT_TRUE(c.sim().host(p).is_up())
        << "seed " << seed << ": recovery keeps dying at p" << p;
  }

  ASSERT_TRUE(c.await_quiesced()) << "seed " << seed;

  // The first pair completed at the submitter (it stayed up through the
  // call unless it was the crash victim — it never is, victims rotate from
  // submitter+1): both effects must be visible on every replica.
  if (pair.completed) {
    for (ProcessId p = 0; p < kN; ++p) {
      auto* n = c.node(p);
      ASSERT_NE(n, nullptr);
      // PairAttempt's group_a/group_b are numerically ordered, not keyed;
      // resolve each key's owning shard through the router.
      EXPECT_EQ(n->shard(ga).kv().get(key_a).value_or(""),
                "L" + std::to_string(seed))
          << "seed " << seed << " node " << p;
      EXPECT_EQ(n->shard(n->router().group_of_key(key_b))
                    .kv()
                    .get(key_b)
                    .value_or(""),
                "R" + std::to_string(seed))
          << "seed " << seed << " node " << p;
    }
  }
  for (std::uint32_t g = 0; g < kGroups; ++g) c.shard_digest(g);

  ASSERT_EQ(c.trace_dropped(), 0u) << "seed " << seed;
  EXPECT_EQ(c.sim().net_stats().dropped_oversize, 0u) << "seed " << seed;
  obs::CheckOptions check;
  check.require_quiesced = true;
  check.basic_protocol = !alternative;
  // The group envelope's bytes come out of each stack's datagram limit.
  check.max_state_chunk_bytes =
      cfg.sim.net.max_datagram_bytes - group::kEnvelopeBytes;
  const auto report =
      obs::check_sharded_trace(c.collect_trace(), kGroups, check);
  for (const auto& v : report.violations) {
    ADD_FAILURE() << "seed " << seed << ": " << obs::to_string(v);
  }
}

}  // namespace

// Split into quarters so a red seed narrows fast and no single ctest entry
// runs long.
TEST(ShardedChurnSweep, Seeds0To24) {
  for (std::uint64_t s = 0; s < 25; ++s) run_seed(s);
}
TEST(ShardedChurnSweep, Seeds25To49) {
  for (std::uint64_t s = 25; s < 50; ++s) run_seed(s);
}
TEST(ShardedChurnSweep, Seeds50To74) {
  for (std::uint64_t s = 50; s < 75; ++s) run_seed(s);
}
TEST(ShardedChurnSweep, Seeds75To99) {
  for (std::uint64_t s = 75; s < 100; ++s) run_seed(s);
}
