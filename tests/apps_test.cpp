// Tests for the application layer: KvStore and DeferredUpdateDb state
// machines (unit level) and their replication over the full stack
// (integration level, replica convergence under crashes).
#include <gtest/gtest.h>

#include "apps/deferred_update.hpp"
#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "sim/simulation.hpp"

using namespace abcast;
using namespace abcast::apps;

// ------------------------------------------------------------- KvCommand

TEST(KvCommand, RoundTripsAllFields) {
  KvCommand c;
  c.op = KvCommand::Op::kCas;
  c.key = "k";
  c.value = "v";
  c.expect = "e";
  c.delta = -7;
  const auto back = decode_from_bytes<KvCommand>(encode_to_bytes(c));
  EXPECT_EQ(back.op, KvCommand::Op::kCas);
  EXPECT_EQ(back.key, "k");
  EXPECT_EQ(back.value, "v");
  EXPECT_EQ(back.expect, "e");
  EXPECT_EQ(back.delta, -7);
}

// --------------------------------------------------------------- KvStore

TEST(KvStore, PutGetDel) {
  KvStore kv;
  kv.apply(KvCommand::put("a", "1"));
  EXPECT_EQ(kv.get("a"), "1");
  kv.apply(KvCommand::put("a", "2"));
  EXPECT_EQ(kv.get("a"), "2");
  kv.apply(KvCommand::del("a"));
  EXPECT_FALSE(kv.get("a").has_value());
  EXPECT_EQ(kv.applied_commands(), 3u);
}

TEST(KvStore, AddTreatsMissingAsZeroAndAccumulates) {
  KvStore kv;
  kv.apply(KvCommand::add("n", 5));
  kv.apply(KvCommand::add("n", -2));
  EXPECT_EQ(kv.get_int("n"), 3);
  kv.apply(KvCommand::put("s", "not-a-number"));
  kv.apply(KvCommand::add("s", 1));
  EXPECT_EQ(kv.get_int("s"), 1);  // non-numeric coerces to 0
}

TEST(KvStore, CasAppliesOnlyOnMatch) {
  KvStore kv;
  kv.apply(KvCommand::put("k", "old"));
  kv.apply(KvCommand::cas("k", "wrong", "x"));
  EXPECT_EQ(kv.get("k"), "old");
  EXPECT_EQ(kv.failed_cas(), 1u);
  kv.apply(KvCommand::cas("k", "old", "new"));
  EXPECT_EQ(kv.get("k"), "new");
  kv.apply(KvCommand::cas("missing", "", "v"));  // absent key: fails
  EXPECT_EQ(kv.failed_cas(), 2u);
}

TEST(KvStore, MalformedCommandIsRejectedDeterministically) {
  KvStore kv;
  kv.apply(Bytes{1, 2, 3});  // garbage
  EXPECT_EQ(kv.rejected_commands(), 1u);
  EXPECT_EQ(kv.applied_commands(), 0u);
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvStore, SnapshotRestoreRoundTrip) {
  KvStore kv;
  kv.apply(KvCommand::put("a", "1"));
  kv.apply(KvCommand::put("b", "2"));
  kv.apply(KvCommand::cas("a", "zzz", "nope"));
  const Bytes snap = kv.snapshot();

  KvStore kv2;
  kv2.restore(snap);
  EXPECT_EQ(kv2.get("a"), "1");
  EXPECT_EQ(kv2.get("b"), "2");
  EXPECT_EQ(kv2.digest(), kv.digest());
  EXPECT_EQ(kv2.failed_cas(), 1u);

  kv2.restore({});  // empty snapshot = initial state
  EXPECT_EQ(kv2.size(), 0u);
  EXPECT_EQ(kv2.applied_commands(), 0u);
}

TEST(KvStore, DigestIsContentSensitive) {
  KvStore a, b;
  a.apply(KvCommand::put("x", "1"));
  b.apply(KvCommand::put("x", "2"));
  EXPECT_NE(a.digest(), b.digest());
  b.apply(KvCommand::put("x", "1"));
  EXPECT_EQ(a.digest(), b.digest());
}

// -------------------------------------------------------- DeferredUpdateDb

TEST(DeferredUpdate, CommitAppliesWritesAndBumpsVersions) {
  DeferredUpdateDb db;
  auto txn = db.begin();
  EXPECT_FALSE(txn.get("acct").has_value());
  txn.put("acct", "100");
  db.apply(txn.commit_request());
  EXPECT_EQ(db.committed(), 1u);
  EXPECT_EQ(db.read_committed("acct"), "100");
  EXPECT_EQ(db.version_of("acct"), 1u);
}

TEST(DeferredUpdate, ConflictingTransactionAborts) {
  DeferredUpdateDb db;
  auto t0 = db.begin();
  t0.put("acct", "100");
  db.apply(t0.commit_request());

  // Two concurrent read-modify-write transactions on the same record.
  auto t1 = db.begin();
  auto t2 = db.begin();
  const auto v1 = *t1.get("acct");
  const auto v2 = *t2.get("acct");
  t1.put("acct", std::to_string(std::stoi(v1) - 30));
  t2.put("acct", std::to_string(std::stoi(v2) - 50));

  db.apply(t1.commit_request());  // certified first: commits
  db.apply(t2.commit_request());  // stale read version: aborts
  EXPECT_EQ(db.committed(), 2u);
  EXPECT_EQ(db.aborted(), 1u);
  EXPECT_EQ(db.read_committed("acct"), "70");
}

TEST(DeferredUpdate, NonConflictingTransactionsBothCommit) {
  DeferredUpdateDb db;
  auto t1 = db.begin();
  auto t2 = db.begin();
  t1.get("a");
  t1.put("a", "1");
  t2.get("b");
  t2.put("b", "2");
  db.apply(t1.commit_request());
  db.apply(t2.commit_request());
  EXPECT_EQ(db.committed(), 2u);
  EXPECT_EQ(db.aborted(), 0u);
}

TEST(DeferredUpdate, ReadYourOwnWrites) {
  DeferredUpdateDb db;
  auto txn = db.begin();
  txn.put("k", "buffered");
  EXPECT_EQ(txn.get("k"), "buffered");  // sees its own write, no version dep
  db.apply(txn.commit_request());
  EXPECT_EQ(db.committed(), 1u);
}

TEST(DeferredUpdate, ReadOfAbsentKeyGuardsAgainstCreation) {
  DeferredUpdateDb db;
  auto t1 = db.begin();
  t1.get("new");  // records version 0 = "expect absent"
  t1.put("new", "mine");
  auto t2 = db.begin();
  t2.get("new");
  t2.put("new", "theirs");
  db.apply(t1.commit_request());
  db.apply(t2.commit_request());
  EXPECT_EQ(db.committed(), 1u);
  EXPECT_EQ(db.aborted(), 1u);
  EXPECT_EQ(db.read_committed("new"), "mine");
}

TEST(DeferredUpdate, BlindWritesNeverAbort) {
  DeferredUpdateDb db;
  for (int i = 0; i < 5; ++i) {
    auto txn = db.begin();
    txn.put("k", std::to_string(i));  // no reads: nothing to invalidate
    db.apply(txn.commit_request());
  }
  EXPECT_EQ(db.committed(), 5u);
  EXPECT_EQ(db.read_committed("k"), "4");
  EXPECT_EQ(db.version_of("k"), 5u);
}

TEST(DeferredUpdate, SnapshotRestorePreservesVersions) {
  DeferredUpdateDb db;
  auto t = db.begin();
  t.put("k", "v");
  db.apply(t.commit_request());
  DeferredUpdateDb db2;
  db2.restore(db.snapshot());
  EXPECT_EQ(db2.version_of("k"), 1u);
  EXPECT_EQ(db2.digest(), db.digest());
  // A transaction started on the restored replica certifies identically.
  auto t2 = db2.begin();
  t2.get("k");
  t2.put("k", "w");
  db2.apply(t2.commit_request());
  EXPECT_EQ(db2.committed(), 2u);
}

TEST(DeferredUpdate, MalformedRequestRejected) {
  DeferredUpdateDb db;
  db.apply(Bytes{0xde, 0xad});
  EXPECT_EQ(db.rejected(), 1u);
}

// ----------------------------------------------------- replicated KV (sim)

namespace {

struct KvCluster {
  explicit KvCluster(sim::SimConfig cfg, core::StackConfig stack = {})
      : sim(cfg) {
    sim.set_node_factory([stack](Env& env) {
      return std::make_unique<RsmNode>(
          env, stack, [] { return std::make_unique<KvStore>(); });
    });
    sim.start_all();
  }

  RsmNode* node(ProcessId p) { return static_cast<RsmNode*>(sim.node(p)); }
  KvStore& kv(ProcessId p) {
    return static_cast<KvStore&>(node(p)->rsm().machine());
  }

  bool converged(std::uint64_t expect_applied) {
    for (ProcessId p = 0; p < sim.n(); ++p) {
      if (!sim.host(p).is_up()) return false;
      if (kv(p).applied_commands() + kv(p).rejected_commands() +
              kv(p).failed_cas() <
          expect_applied)
        return false;
    }
    // applied counts can overshoot the check above; digest seals equality
    const auto d0 = kv(0).digest();
    for (ProcessId p = 1; p < sim.n(); ++p) {
      if (kv(p).digest() != d0) return false;
    }
    return true;
  }

  sim::Simulation sim;
};

}  // namespace

TEST(ReplicatedKv, AllReplicasConvergeToSameContents) {
  KvCluster c({.n = 3, .seed = 41});
  for (int i = 0; i < 20; ++i) {
    c.node(static_cast<ProcessId>(i % 3))
        ->submit(KvCommand::put("key" + std::to_string(i % 5),
                                "v" + std::to_string(i)));
  }
  ASSERT_TRUE(c.sim.run_until_pred([&] { return c.converged(20); },
                                   seconds(60)));
  EXPECT_EQ(c.kv(0).applied_commands(), 20u);
}

TEST(ReplicatedKv, CountersAreExactDespiteInterleaving) {
  KvCluster c({.n = 3, .seed = 42});
  for (int i = 0; i < 30; ++i) {
    c.node(static_cast<ProcessId>(i % 3))->submit(KvCommand::add("n", 1));
    if (i % 7 == 0) c.sim.run_for(millis(10));
  }
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.kv(p).get_int("n") != 30) return false;
        }
        return true;
      },
      seconds(60)));
}

TEST(ReplicatedKv, ReplicaRebuildsStateAfterCrash) {
  KvCluster c({.n = 3, .seed = 43});
  for (int i = 0; i < 10; ++i) {
    c.node(0)->submit(KvCommand::add("n", 1));
  }
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] { return c.kv(2).get_int("n") == 10; }, seconds(60)));
  c.sim.crash(2);
  c.sim.recover(2);
  // Replay rebuilt the KV from the decision log.
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] { return c.kv(2).get_int("n") == 10; }, seconds(60)));
  EXPECT_EQ(c.kv(2).digest(), c.kv(0).digest());
}

TEST(ReplicatedKv, AppCheckpointingRestoresViaSnapshot) {
  core::StackConfig stack;
  stack.ab.checkpointing = true;
  stack.ab.app_checkpointing = true;
  stack.ab.checkpoint_period = millis(200);
  KvCluster c({.n = 3, .seed = 44}, stack);
  for (int i = 0; i < 10; ++i) {
    c.node(0)->submit(KvCommand::add("n", 1));
    c.sim.run_for(millis(80));
  }
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] { return c.kv(2).get_int("n") == 10; }, seconds(60)));
  c.sim.run_for(millis(400));  // ensure a checkpoint covers everything
  c.sim.crash(2);
  c.sim.recover(2);
  EXPECT_EQ(c.kv(2).get_int("n"), 10);  // instantly: restored from snapshot
  EXPECT_EQ(c.kv(2).digest(), c.kv(0).digest());
}

TEST(ReplicatedKv, MultiSliceSnapshotCatchUpUnderLoss) {
  // A rejoiner whose history was folded into an ~85 KB application
  // checkpoint and truncated away catches up through a snapshot streamed in
  // many slices of a 4 KiB network, under 5% loss, in both gossip modes.
  for (const bool digest : {false, true}) {
    SCOPED_TRACE(digest ? "digest gossip" : "full-set gossip");
    sim::SimConfig cfg;
    cfg.n = 3;
    cfg.seed = 45;
    cfg.net.max_datagram_bytes = 4096;
    cfg.net.drop_prob = 0.05;
    core::StackConfig stack;
    stack.ab = core::Options::alternative();
    stack.ab.digest_gossip = digest;
    KvCluster c(cfg, stack);
    c.sim.crash(2);
    // In bursts of four puts, each applied before the next.
    const std::string value(200, 'v');
    for (int i = 0; i < 400; i += 4) {
      for (int j = i; j < i + 4; ++j) {
        c.node(static_cast<ProcessId>(j % 2))
            ->submit(KvCommand::put("key-" + std::to_string(j), value));
      }
      const auto applied = static_cast<std::uint64_t>(i + 4);
      ASSERT_TRUE(c.sim.run_until_pred(
          [&] {
            return c.kv(0).applied_commands() >= applied &&
                   c.kv(1).applied_commands() >= applied;
          },
          c.sim.now() + seconds(60)));
    }
    c.sim.run_for(seconds(2));  // checkpoints fold and truncate the history
    c.sim.recover(2);
    ASSERT_TRUE(c.sim.run_until_pred([&] { return c.converged(400); },
                                     c.sim.now() + seconds(60)));
    EXPECT_EQ(c.node(2)->stack().ab().metrics().state_snapshots_applied, 1u);
    const std::uint64_t chunks =
        c.node(0)->stack().ab().metrics().state_chunks_sent +
        c.node(1)->stack().ab().metrics().state_chunks_sent;
    EXPECT_GT(chunks, 4u);
    EXPECT_EQ(c.sim.net_stats().dropped_oversize, 0u);
  }
}

// --------------------------------------------- replicated deferred-update DB

namespace {

struct DbCluster {
  explicit DbCluster(sim::SimConfig cfg) : sim(cfg) {
    sim.set_node_factory([](Env& env) {
      return std::make_unique<RsmNode>(
          env, core::StackConfig{},
          [] { return std::make_unique<DeferredUpdateDb>(); });
    });
    sim.start_all();
  }
  RsmNode* node(ProcessId p) { return static_cast<RsmNode*>(sim.node(p)); }
  DeferredUpdateDb& db(ProcessId p) {
    return static_cast<DeferredUpdateDb&>(node(p)->rsm().machine());
  }
  sim::Simulation sim;
};

}  // namespace

TEST(ReplicatedDb, ConcurrentConflictingTxnsExactlyOneCommits) {
  DbCluster c({.n = 3, .seed = 45});
  // Seed the account.
  auto init = c.db(0).begin();
  init.put("acct", "100");
  c.node(0)->submit(init.commit_request());
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] { return c.db(2).committed() == 1; }, seconds(60)));

  // Two replicas run conflicting withdrawals concurrently.
  auto t1 = c.db(1).begin();
  auto t2 = c.db(2).begin();
  t1.get("acct");
  t2.get("acct");
  t1.put("acct", "60");
  t2.put("acct", "10");
  c.node(1)->submit(t1.commit_request());
  c.node(2)->submit(t2.commit_request());

  ASSERT_TRUE(c.sim.run_until_pred(
      [&] { return c.db(0).committed() + c.db(0).aborted() == 3; },
      seconds(60)));
  EXPECT_EQ(c.db(0).committed(), 2u);  // init + one of the withdrawals
  EXPECT_EQ(c.db(0).aborted(), 1u);
  // All replicas agree on the surviving value.
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] {
        return c.db(1).digest() == c.db(0).digest() &&
               c.db(2).digest() == c.db(0).digest();
      },
      seconds(60)));
  const auto v = c.db(0).read_committed("acct");
  EXPECT_TRUE(v == "60" || v == "10");
}

TEST(ReplicatedDb, ThroughputWorkloadStaysConsistent) {
  DbCluster c({.n = 3, .seed = 46});
  // 30 transactions over 10 keys submitted from all replicas; some
  // conflict, some do not. Every replica must reach identical state.
  for (int i = 0; i < 30; ++i) {
    const ProcessId p = static_cast<ProcessId>(i % 3);
    auto txn = c.db(p).begin();
    const std::string key = "k" + std::to_string(i % 10);
    txn.get(key);
    txn.put(key, "v" + std::to_string(i));
    c.node(p)->submit(txn.commit_request());
    if (i % 5 == 4) c.sim.run_for(millis(30));
  }
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.db(p).committed() + c.db(p).aborted() +
                  c.db(p).rejected() < 30) {
            return false;
          }
        }
        return c.db(0).digest() == c.db(1).digest() &&
               c.db(1).digest() == c.db(2).digest();
      },
      seconds(120)));
  EXPECT_GT(c.db(0).committed(), 0u);
}
