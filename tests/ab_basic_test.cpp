// Tests for the basic Atomic Broadcast protocol (paper Fig. 2): rounds,
// gossip dissemination, replay-based recovery, minimal logging, the
// sequencer's one round in flight (batches bounded by the datagram limit
// under competing proposers, crashes mid-round, decisions parked above a
// lagging round), admission and fair selection of what a datagram carries,
// per-instance catch-up of a replica far behind, and the four correctness
// properties in targeted scenarios.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/gossip_wire.hpp"
#include "harness/fixture.hpp"

using namespace abcast;
using namespace abcast::harness;

namespace {

ClusterConfig basic_config(std::uint32_t n, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.sim.n = n;
  cfg.sim.seed = seed;
  cfg.stack.ab = core::Options::basic();
  return cfg;
}

/// The payload of the bounded-batch tests below.
constexpr std::size_t kPayload = 64;

/// A datagram limit at which a consensus proposal carries at most
/// `per_round` (1 or 2) messages of kPayload bytes: a proposal's entries get
/// the limit less 32 bytes (the largest consensus header and the batch
/// count), each entry takes 16 + 64 bytes, and the 40 bytes of slack are
/// less than one more entry.
std::size_t limit_for(std::size_t per_round) {
  return 32 + (16 + kPayload) * per_round + 40;
}

/// Options::alternative() with proposals bounded to `per_round` messages.
ClusterConfig bounded_alternative_config(std::uint64_t seed,
                                         std::size_t per_round) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = seed;
  cfg.sim.net.max_datagram_bytes = limit_for(per_round);
  cfg.stack.ab = core::Options::alternative();
  return cfg;
}

Bytes payload() { return Bytes(kPayload, 'p'); }

/// Crashes p2, then orders `rounds` messages from p0 one round at a time,
/// so that p2 misses at least that many consensus instances — more than
/// the 256 decisions consensus keeps in memory when `rounds` is 400.
std::vector<MsgId> order_rounds_without_p2(Cluster& c, int rounds) {
  c.sim().crash(2);
  std::vector<MsgId> ids;
  for (int i = 0; i < rounds; ++i) {
    ids.push_back(c.broadcast(0));
    if (!c.await_delivery({ids.back()}, {0, 1})) return {};
  }
  return ids;
}

/// How p2 catches up after sleeping through 1,000 rounds: n = 3,
/// Options::basic(), `engine`, 50–200 µs links losing `drop` of their
/// datagrams, and p0 and p1 each broadcasting every 2 ms throughout, also
/// while p2 catches up; p2 broadcasts nothing. `took` runs from p2's
/// recovery until it reaches the round p0 held then. The proposal counts
/// are p2's up to that moment, read off its trace when `count_proposals`:
/// those for a round below the highest one a peer's gossip had shown it,
/// and of those the ones carrying more than the empty batch.
struct CatchUp {
  bool done = false;
  Duration took = 0;
  std::uint64_t lagging_proposals = 0;
  std::uint64_t lagging_backlogs = 0;
};

CatchUp catch_up_after(ConsensusKind engine, std::uint64_t seed, double drop,
                       bool count_proposals) {
  ClusterConfig cfg = basic_config(3, seed);
  cfg.stack.engine = engine;
  cfg.sim.net.delay_min = micros(50);
  cfg.sim.net.delay_max = micros(200);
  cfg.sim.net.drop_prob = drop;
  if (count_proposals) cfg.sim.trace_capacity = 1u << 16;
  Cluster c(cfg);
  c.start_all();
  std::function<void()> load = [&] {
    c.broadcast(0);
    c.broadcast(1);
    c.sim().after(millis(2), load);
  };
  load();
  c.sim().crash(2);
  const std::uint64_t from = c.stack(0)->ab().round();
  CatchUp out;
  if (!c.sim().run_until_pred(
          [&] { return c.stack(0)->ab().round() >= from + 1000; },
          c.sim().now() + seconds(120)) ||
      !c.sim().recover(2)) {
    return out;
  }
  const std::uint64_t target = c.stack(0)->ab().round();
  const TimePoint recovered = c.sim().now();
  out.done = c.sim().run_until_pred(
      [&] { return c.stack(2)->ab().round() >= target; },
      recovered + seconds(10));
  out.took = c.sim().now() - recovered;
  c.oracle().check();

  if (!count_proposals) return out;
  const auto events = c.sim().host(2).tracer()->events();
  EXPECT_LT(events.front().t, recovered);  // the ring kept every later one
  const std::uint32_t empty_batch = crc32(Bytes(4, 0));  // a u32 count of 0
  std::uint64_t gossip_k = 0;
  for (const auto& e : events) {
    if (e.t < recovered) continue;
    if (e.kind == obs::EventKind::kGossipRecv && e.arg != 2) {
      gossip_k = std::max(gossip_k, e.k);
    } else if (e.kind == obs::EventKind::kPropose && e.k < gossip_k) {
      out.lagging_proposals += 1;
      if (e.arg != empty_batch) out.lagging_backlogs += 1;
    }
  }
  return out;
}

/// A basic-mode stack that gets its own full-set gossip back only once its
/// round has moved past the one it held when the copy arrived, as a
/// real-time host may hand it back one event-loop pass later. Counts, in
/// `self_decided` (which outlives crashes), the decisions the stack then
/// receives from itself.
class LateSelfGossip final : public NodeApp {
 public:
  LateSelfGossip(Env& env, std::uint64_t& self_decided)
      : env_(env), stack_(env, core::StackConfig{}, sink_),
        self_decided_(self_decided) {}

  void start(bool recovering) override { stack_.start(recovering); }
  void on_message(ProcessId from, const Wire& msg) override {
    if (from == env_.self() && msg.type == MsgType::kPaxosDecided) {
      self_decided_ += 1;
    }
    if (from == env_.self() && msg.type == MsgType::kAbGossip) {
      held_.emplace_back(stack_.ab().round(), msg);
      return;
    }
    stack_.on_message(from, msg);
    auto held = std::move(held_);
    held_.clear();
    for (auto& [round, gossip] : held) {
      if (stack_.ab().round() > round) {
        stack_.on_message(env_.self(), gossip);
      } else {
        held_.emplace_back(round, std::move(gossip));
      }
    }
  }
  core::AtomicBroadcast& ab() { return stack_.ab(); }

 private:
  struct NullSink final : core::DeliverySink {
    void deliver(const core::AppMsg&) override {}
  };
  Env& env_;
  NullSink sink_;
  core::NodeStack stack_;
  std::uint64_t& self_decided_;
  std::vector<std::pair<std::uint64_t, Wire>> held_;
};

/// Storage ops of p0's and p1's consensus layers that read a record.
std::uint64_t server_cons_gets(Cluster& c) {
  return c.stack(0)->consensus().storage_stats().get_ops +
         c.stack(1)->consensus().storage_stats().get_ops;
}

}  // namespace

TEST(AbBasic, SingleBroadcastReachesEveryone) {
  Cluster c(basic_config(3, 1));
  c.start_all();
  const MsgId id = c.broadcast(0, Bytes{'h', 'i'});
  ASSERT_TRUE(c.await_delivery({id}));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(c.stack(p)->ab().is_delivered(id));
  }
  EXPECT_EQ(c.oracle().global_order().front(), id);
}

TEST(AbBasic, ConcurrentBroadcastersAgreeOnOneOrder) {
  Cluster c(basic_config(5, 2));
  c.start_all();
  std::vector<MsgId> ids;
  for (int round = 0; round < 10; ++round) {
    for (ProcessId p = 0; p < 5; ++p) ids.push_back(c.broadcast(p));
    c.sim().run_for(millis(5));
  }
  ASSERT_TRUE(c.await_delivery(ids));
  c.oracle().check();
  EXPECT_EQ(c.oracle().global_order().size(), 50u);
  // Every process is fully caught up.
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(c.oracle().position(p), 50u);
  }
}

TEST(AbBasic, RoundsAdvanceOnlyWhenThereIsWork) {
  Cluster c(basic_config(3, 3));
  c.start_all();
  c.sim().run_for(seconds(2));
  // Nothing was broadcast: no Consensus instance should have been run.
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.stack(p)->ab().round(), 0u);
    EXPECT_EQ(c.stack(p)->ab().metrics().proposals, 0u);
  }
  const MsgId id = c.broadcast(1);
  ASSERT_TRUE(c.await_delivery({id}));
  EXPECT_GE(c.stack(1)->ab().round(), 1u);
}

TEST(AbBasic, BatchSharesOneRound) {
  Cluster c(basic_config(3, 4));
  c.start_all();
  // Submit 20 messages at once; they should ride in very few rounds.
  const auto ids = c.broadcast_many(0, 20);
  ASSERT_TRUE(c.await_delivery(ids));
  EXPECT_LE(c.stack(0)->ab().round(), 3u);
}

TEST(AbBasic, GossipDisseminatesToProposerlessProcesses) {
  Cluster c(basic_config(3, 5));
  c.start_all();
  const MsgId id = c.broadcast(2);
  ASSERT_TRUE(c.await_delivery({id}));
  // p0 and p1 never broadcast, yet their Unordered sets got the message via
  // gossip and they delivered it.
  EXPECT_GT(c.stack(0)->ab().metrics().gossip_received, 0u);
  EXPECT_TRUE(c.stack(0)->ab().is_delivered(id));
}

TEST(AbBasic, ZeroAtomicBroadcastLogOperations) {
  // The paper's minimal-logging claim: with the basic protocol the AB layer
  // itself logs NOTHING — the only log operations belong to Consensus (the
  // proposal, plus consensus-internal state) and the FD epoch.
  Cluster c(basic_config(3, 6));
  c.start_all();
  const auto ids = c.broadcast_many(0, 30);
  ASSERT_TRUE(c.await_delivery(ids));
  for (ProcessId p = 0; p < 3; ++p) {
    const auto ops = c.log_ops(p);
    EXPECT_EQ(ops.ab, 0u) << "p" << p;
    EXPECT_GT(ops.consensus, 0u) << "p" << p;
    EXPECT_EQ(ops.fd, 1u) << "p" << p;  // one epoch record
  }
}

TEST(AbBasic, RecoveryReplaysDecidedRounds) {
  Cluster c(basic_config(3, 7));
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(millis(120));  // spread over several rounds
  }
  ASSERT_TRUE(c.await_delivery(ids));
  const auto rounds = c.stack(1)->ab().round();
  EXPECT_GE(rounds, 2u);

  c.sim().crash(1);
  c.sim().recover(1);
  // Replay rebuilt the Agreed queue from the Consensus decision log alone.
  EXPECT_EQ(c.stack(1)->ab().metrics().replayed_rounds, rounds);
  EXPECT_EQ(c.stack(1)->ab().round(), rounds);
  for (const auto& id : ids) {
    EXPECT_TRUE(c.stack(1)->ab().is_delivered(id));
  }
  c.oracle().check();
}

TEST(AbBasic, RecoveringProcessCatchesUpOnMissedRounds) {
  Cluster c(basic_config(3, 8));
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  ASSERT_TRUE(c.await_delivery(warm));

  c.sim().crash(2);
  std::vector<MsgId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(millis(150));
  }
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  c.sim().recover(2);
  ASSERT_TRUE(c.await_delivery(ids, {2}));
  c.oracle().check();
  EXPECT_EQ(c.oracle().position(2), c.oracle().global_order().size());
}

TEST(AbBasic, InboundCutReplicaPullsDeepBacklogQuickly) {
  // p2 hears nothing for ~90 rounds while its own gossip still gets out, so
  // it misses every decision's one push. Without state transfer it catches
  // up by pulling: each window of decisions it applies asks the peer
  // furthest ahead for the next one.
  for (std::uint64_t seed = 61; seed <= 65; ++seed) {
    Cluster c(basic_config(3, seed));
    c.start_all();
    c.sim().partition({2}, sim::PartitionMode::kInbound);
    std::vector<MsgId> ids;
    for (int i = 0; i < 400; ++i) {  // every 5 ms for 2 s
      ids.push_back(c.broadcast(0));
      c.sim().run_for(millis(5));
    }
    ASSERT_TRUE(c.await_delivery(ids, {0, 1})) << "seed " << seed;
    c.sim().heal_partition();
    EXPECT_TRUE(c.await_delivery(ids, {2}, millis(100))) << "seed " << seed;
    c.oracle().check();
  }
}

TEST(AbBasic, DuplicationHeavyNetworkPreservesIntegrity) {
  ClusterConfig cfg = basic_config(3, 9);
  cfg.sim.net.dup_prob = 0.9;  // nearly every datagram delivered twice
  Cluster c(cfg);
  c.start_all();
  const auto ids = c.broadcast_many(0, 20);
  ASSERT_TRUE(c.await_delivery(ids));
  c.oracle().check();  // integrity is enforced by the oracle
  EXPECT_EQ(c.oracle().global_order().size(), 20u);
}

TEST(AbBasic, LossyNetworkStillDelivers) {
  ClusterConfig cfg = basic_config(3, 10);
  cfg.sim.net.drop_prob = 0.35;
  Cluster c(cfg);
  c.start_all();
  const auto ids = c.broadcast_many(1, 15);
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  c.oracle().check();
}

TEST(AbBasic, MessageIdsUniqueAcrossIncarnations) {
  Cluster c(basic_config(3, 11));
  c.start_all();
  const MsgId before = c.broadcast(0);
  ASSERT_TRUE(c.await_delivery({before}));
  c.sim().crash(0);
  c.sim().recover(0);
  const MsgId after = c.broadcast(0);
  EXPECT_NE(before, after);
  EXPECT_GT(after.seq, before.seq);  // new incarnation sorts later
  ASSERT_TRUE(c.await_delivery({after}));
  c.oracle().check();
}

TEST(AbBasic, DeliveredSequencesAreExactPrefixes) {
  // Crash p2 mid-stream so processes are at different positions, then
  // verify the prefix property on the oracle's record of the deliveries
  // (basic mode keeps no explicit Agreed suffix).
  Cluster c(basic_config(3, 12));
  c.start_all();
  auto ids = c.broadcast_many(0, 5);
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().crash(2);
  auto more = c.broadcast_many(0, 5);
  ASSERT_TRUE(c.await_delivery(more, {0, 1}));

  // p0 delivered all 10, in p0's broadcast order; p2 is down at a prefix of
  // them, and the oracle has already verified every delivery was a prefix
  // extension.
  ids.insert(ids.end(), more.begin(), more.end());
  const auto& order = c.oracle().global_order();
  ASSERT_EQ(c.oracle().position(0), 10u);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(order, ids);
  EXPECT_LE(c.oracle().position(2), 5u);
  EXPECT_EQ(c.stack(0)->ab().agreed().total(), 10u);
  EXPECT_TRUE(c.stack(0)->ab().agreed().suffix().empty());
  c.oracle().check();
}

TEST(AbBasic, EmptyProposalForMissedRoundsOnly) {
  Cluster c(basic_config(3, 13));
  c.start_all();
  const auto ids = c.broadcast_many(0, 10);
  ASSERT_TRUE(c.await_delivery(ids));
  // No process should have proposed an empty batch in a crash-free run
  // where it always had something to propose or nothing to do.
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.stack(p)->ab().metrics().empty_proposals, 0u);
  }
}

TEST(AbBasic, UnorderedSetShrinksAfterAgreement) {
  Cluster c(basic_config(3, 14));
  c.start_all();
  const auto ids = c.broadcast_many(0, 10);
  ASSERT_TRUE(c.await_delivery(ids));
  c.sim().run_for(seconds(1));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.stack(p)->ab().unordered_size(), 0u) << "p" << p;
  }
}

TEST(AbBasic, PayloadsAreDeliveredVerbatim) {
  // Each process delivers into a sink that records what it received and
  // passes it on to the oracle.
  struct RecordingSink final : core::DeliverySink {
    RecordingSink(Oracle& oracle, ProcessId p) : inner(oracle, p) {}
    void deliver(const core::AppMsg& m) override {
      received.push_back(m);
      inner.deliver(m);
    }
    OracleSink inner;
    std::vector<core::AppMsg> received;
  };
  Cluster c(basic_config(3, 15));
  std::vector<std::unique_ptr<RecordingSink>> sinks;
  for (ProcessId p = 0; p < 3; ++p) {
    sinks.push_back(std::make_unique<RecordingSink>(c.oracle(), p));
  }
  c.sim().set_node_factory([&](Env& env) {
    c.oracle().on_restart(env.self());
    return std::make_unique<core::NodeStack>(env, c.config().stack,
                                             *sinks[env.self()]);
  });
  c.start_all();
  const Bytes payload{0x00, 0xFF, 0x42, 0x00};
  const MsgId id = c.broadcast(0, payload);
  ASSERT_TRUE(c.await_delivery({id}));
  const auto& received = sinks[1]->received;
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].id, id);
  EXPECT_EQ(received[0].payload, payload);
}

TEST(AbBasic, WorksWithBothFailureDetectors) {
  // The stack is failure-detector-agnostic (paper §3.5): the same workload
  // succeeds with the epoch detector and with the bounded-output
  // suspect-list detector. The latter pays one stack-logged incarnation
  // record per start instead of the detector's epoch record.
  for (const auto kind : {FdKind::kEpoch, FdKind::kSuspectList}) {
    ClusterConfig cfg = basic_config(3, 16);
    cfg.stack.fd_kind = kind;
    Cluster c(cfg);
    c.start_all();
    auto ids = c.broadcast_many(0, 10);
    ASSERT_TRUE(c.await_delivery(ids)) << to_string(kind);
    c.sim().crash(2);
    c.sim().recover(2);
    for (const auto& id : ids) {
      EXPECT_TRUE(c.stack(2)->ab().is_delivered(id)) << to_string(kind);
    }
    c.oracle().check();
    EXPECT_GE(c.stack(2)->incarnation(), 2u) << to_string(kind);
  }
}

TEST(AbBasic, OneRoundInFlight) {
  // Fig. 2's sequencer proposes round k only after round k-1 decides: after
  // every step no process has proposed above its current round, and no
  // round is proposed twice. In this crash-free loaded run every proposal
  // is non-empty.
  Cluster c(basic_config(3, 28));
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(micros(200));
    for (ProcessId p = 0; p < 3; ++p) {
      const std::uint64_t k = c.stack(p)->ab().round();
      for (std::uint64_t j = k + 1; j <= k + 4; ++j) {
        EXPECT_FALSE(c.stack(p)->consensus().proposed(j))
            << "p" << p << " proposed round " << j << " at round " << k;
      }
    }
  }
  ASSERT_TRUE(c.await_delivery(ids));
  ASSERT_TRUE(c.await_quiesced());
  c.oracle().check();
  for (ProcessId p = 0; p < 3; ++p) {
    const auto& m = c.stack(p)->ab().metrics();
    EXPECT_EQ(m.empty_proposals, 0u) << "p" << p;
    EXPECT_EQ(m.proposals, c.stack(p)->consensus().metrics().proposals)
        << "p" << p;
  }
}

TEST(AbBasic, CappedBatchesSurviveCompetingProposers) {
  // Batches bounded by the datagram limit under competing proposers: each
  // process proposes the first `per_round` messages its selection takes
  // from its own backlog, so rounds are won by different processes'
  // values. Every broadcast must still be delivered exactly once, in one
  // total order: no decided batch may skip a message that a later round
  // then treats as already covered.
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    for (const std::size_t per_round : {1u, 2u}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(testing::Message() << to_string(engine) << " per_round="
                                        << per_round << " seed=" << seed);
        ClusterConfig cfg = basic_config(3, 700 + seed);
        cfg.stack.engine = engine;
        cfg.sim.net.max_datagram_bytes = limit_for(per_round);
        cfg.sim.net.delay_min = millis(1);
        cfg.sim.net.delay_max = millis(12);
        cfg.sim.net.drop_prob = 0.05;
        Cluster c(cfg);
        c.start_all();
        Rng rng(seed);
        std::vector<MsgId> ids;
        for (int i = 0; i < 60; ++i) {
          ids.push_back(c.broadcast(static_cast<ProcessId>(rng.uniform(0, 2)),
                                    payload()));
          c.sim().run_for(micros(rng.uniform(0, 3000)));
        }
        ASSERT_TRUE(c.await_delivery(ids, {}, seconds(30)));
        ASSERT_TRUE(c.await_quiesced());
        c.oracle().check();
        EXPECT_EQ(c.oracle().global_order().size(), 60u);
      }
    }
  }
}

// The same property on fixed schedules, with every process broadcasting at
// once: the sequencer's proposal pipeline (DESIGN.md §14) must deliver each
// message exactly once, in one total order, on both engines.
TEST(Pipeline, ConcurrentBroadcastersAgreeOnOneOrder) {
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    SCOPED_TRACE(to_string(engine));
    ClusterConfig cfg = basic_config(3, 23);
    cfg.stack.engine = engine;
    cfg.sim.net.max_datagram_bytes = limit_for(2);
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    for (int round = 0; round < 10; ++round) {
      for (ProcessId p = 0; p < 3; ++p) {
        ids.push_back(c.broadcast(p, payload()));
      }
      c.sim().run_for(millis(2));
    }
    ASSERT_TRUE(c.await_delivery(ids));
    ASSERT_TRUE(c.await_quiesced());
    c.oracle().check();
    EXPECT_EQ(c.oracle().global_order().size(), 30u);
  }
}

TEST(Pipeline, CapOneSurvivesCompetingProposers) {
  // The supersession counter-example (DESIGN.md §14): with one message per
  // proposal a decided value holding (p, s+1) without (p, s) would make the
  // duplicate filter treat (p, s) as already covered and drop it forever.
  // With one round in flight each proposal is taken from the proposer's
  // backlog after the previous round applied, so all messages must still
  // deliver, exactly once, in one total order.
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    SCOPED_TRACE(to_string(engine));
    ClusterConfig cfg = basic_config(3, 24);
    cfg.stack.engine = engine;
    cfg.sim.net.max_datagram_bytes = limit_for(1);
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    for (int round = 0; round < 5; ++round) {
      for (ProcessId p = 0; p < 3; ++p) {
        ids.push_back(c.broadcast(p, payload()));
      }
      c.sim().run_for(millis(1));
    }
    ASSERT_TRUE(c.await_delivery(ids));
    ASSERT_TRUE(c.await_quiesced());
    c.oracle().check();  // integrity: exactly-once, total order
    EXPECT_EQ(c.oracle().global_order().size(), 15u);
    // The limit really bounds the batches: no round delivered two messages.
    const auto& batches =
        c.sim().metrics_registry().histogram("ab_batch_size");
    for (std::size_t b = 2; b < obs::Histogram::kBuckets; ++b) {
      EXPECT_EQ(batches.bucket_count(b), 0u) << "bucket " << b;
    }
  }
}

TEST(AbBasic, ProposerCrashMidRoundRecoversEverything) {
  // Crash the proposer while its round is in flight. Recovery replays the
  // decided prefix and re-proposes the logged undecided proposal; the
  // stream then continues without duplicating or losing anything.
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    SCOPED_TRACE(to_string(engine));
    ClusterConfig cfg = bounded_alternative_config(26, /*per_round=*/2);
    cfg.stack.engine = engine;
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    for (int i = 0; i < 10; ++i) ids.push_back(c.broadcast(0, payload()));
    c.sim().run_for(millis(3));  // some rounds decide, one stays in flight
    c.sim().crash(0);
    c.sim().run_for(millis(50));
    ASSERT_TRUE(c.sim().recover(0));
    for (int i = 0; i < 6; ++i) ids.push_back(c.broadcast(0, payload()));
    ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
    ASSERT_TRUE(c.await_quiesced(seconds(120)));
    c.oracle().check();
    EXPECT_EQ(c.oracle().global_order().size(), 16u);
  }
}

TEST(AbBasic, NonProposerCrashMidRoundCatchesUp) {
  Cluster c(bounded_alternative_config(27, /*per_round=*/2));
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(c.broadcast(0, payload()));
  c.sim().run_for(millis(2));
  c.sim().crash(2);
  for (int i = 0; i < 6; ++i) ids.push_back(c.broadcast(1, payload()));
  ASSERT_TRUE(c.await_delivery(ids, {0, 1}));
  ASSERT_TRUE(c.sim().recover(2));
  ASSERT_TRUE(c.await_delivery(ids, {2}, seconds(120)));
  ASSERT_TRUE(c.await_quiesced(seconds(120)));
  c.oracle().check();
}

TEST(AbBasic, CommitGapHistogramRecordsParkedDecides) {
  // Under loss a process that missed decision k can learn k+1 first: that
  // decision parks until k closes, and ab_commit_gap records it (the
  // histogram is cluster-wide in the sim registry). This also pins the
  // metric's name for the dashboards.
  ClusterConfig cfg = basic_config(3, 29);
  cfg.sim.net.max_datagram_bytes = limit_for(1);
  cfg.sim.net.drop_prob = 0.2;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 24; ++i) {
    ids.push_back(c.broadcast(static_cast<ProcessId>(i % 3), payload()));
    c.sim().run_for(micros(500));
  }
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  ASSERT_TRUE(c.await_quiesced(seconds(120)));
  c.oracle().check();
  EXPECT_GT(c.sim().metrics_registry().histogram("ab_commit_gap").count(), 0u);
}

TEST(AbBasic, BroadcastRefusesAPayloadNoDatagramCanCarry) {
  // A message must ride alone in every datagram that carries messages; one
  // that cannot would stall every round that carries it. broadcast()
  // refuses it up front, takes one at the bound, and ordering goes on.
  for (const bool digest : {false, true}) {
    SCOPED_TRACE(digest ? "digest gossip" : "full-set gossip");
    ClusterConfig cfg = basic_config(3, 31);
    cfg.sim.net.max_datagram_bytes = 1024;
    cfg.stack.ab.digest_gossip = digest;
    Cluster c(cfg);
    c.start_all();
    core::AtomicBroadcast& ab = c.stack(0)->ab();
    const std::size_t max = ab.max_payload_bytes();
    // The digest delta has the largest header of the four carriers; an
    // entry adds a 12-byte id and a 4-byte length.
    EXPECT_EQ(max, 1024 - core::digest_header_bytes(3) - 16);
    EXPECT_THROW(ab.broadcast(Bytes(max + 1, 'x')), RequestRefused);
    EXPECT_EQ(ab.unordered_size(), 0u);
    std::vector<MsgId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(c.broadcast(1, Bytes(100, 'a')));
      ids.push_back(c.broadcast(0, Bytes(max, 'm')));
      ids.push_back(c.broadcast(2, Bytes(100, 'b')));
    }
    ASSERT_TRUE(c.await_delivery(ids));
    ASSERT_TRUE(c.await_quiesced());
    c.oracle().check();
    EXPECT_EQ(c.oracle().global_order().size(), ids.size());
    EXPECT_EQ(c.sim().net_stats().dropped_oversize, 0u);
  }
}

TEST(AbBasic, NoSenderStarvesWhileBatchesAreFull) {
  // p0 floods a 1 KiB network with 40 messages every 5 ms for a second, far
  // more than one proposal or gossip datagram carries per round. A single
  // message p2 broadcasts at 100 ms must still be ordered during the flood:
  // proposals and full-set gossip rotate the sender their selection starts
  // at, so p0's backlog cannot take every round.
  constexpr Duration kTick = millis(5);
  constexpr int kTicks = 200;  // one second of flood
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    for (const bool digest : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << to_string(engine)
                   << (digest ? " digest gossip" : " full-set gossip"));
      ClusterConfig cfg = basic_config(3, 33);
      cfg.stack.engine = engine;
      cfg.stack.ab.digest_gossip = digest;
      cfg.sim.net.max_datagram_bytes = 1024;
      Cluster c(cfg);
      c.start_all();
      MsgId lone{};
      const auto ordered_everywhere = [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (!c.stack(p)->ab().is_delivered(lone)) return false;
        }
        return true;
      };
      bool ordered = false;
      for (int t = 0; t < kTicks && !ordered; ++t) {
        for (int i = 0; i < 40; ++i) c.broadcast(0, Bytes(64, 'f'));
        if (t == 20) lone = c.broadcast(2, Bytes(64, 'l'));
        c.sim().run_for(kTick);
        ordered = t >= 20 && ordered_everywhere();
      }
      EXPECT_TRUE(ordered) << "p2's message waited out p0's flood";
      c.oracle().check();
      EXPECT_EQ(c.sim().net_stats().dropped_oversize, 0u);
    }
  }
}

// p2 sleeps through more rounds than consensus keeps decision values for.
// When it recovers, p0 and p1 serve the older decisions it pulls from their
// dec/ records, and p2 delivers exactly the global order.
TEST(AbBasic, LaggardPullsDecisionsOlderThanTheCache) {
  Cluster c(basic_config(3, 41));
  c.start_all();
  const auto ids = order_rounds_without_p2(c, 400);
  ASSERT_EQ(ids.size(), 400u);
  const std::uint64_t rounds = c.stack(0)->ab().round();
  const std::uint64_t gets_before = server_cons_gets(c);
  ASSERT_TRUE(c.sim().recover(2));
  ASSERT_TRUE(c.await_delivery(ids, {2}, seconds(120)));
  // Every instance but the newest 256 was read back by p0, p1 or both.
  EXPECT_GE(server_cons_gets(c) - gets_before, rounds - 256);
  EXPECT_EQ(c.oracle().position(2), 400u);
  c.oracle().check();
}

// p2 sleeps through 1,000 rounds and recovers while the load goes on. The
// first offer it gets tells it how deep it lags, each window of decisions
// it applies clocks its next pull, and every round gossip shows decided
// gets the empty batch from it, never its backlog. When the next pull
// waited out the 8 ms pull spacing and p2 proposed its backlog, this took
// 210-226 ms under Paxos and 61-90 ms under coord; it takes ~5 ms.
TEST(AbBasic, DeepLaggardCatchesUpAtApplySpeed) {
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << to_string(engine) << " seed " << seed);
      const CatchUp r = catch_up_after(engine, seed, 0.0, true);
      ASSERT_TRUE(r.done);
      EXPECT_LE(r.took, millis(30));
      EXPECT_GT(r.lagging_proposals, 0u);
      EXPECT_EQ(r.lagging_backlogs, 0u);
    }
  }
}

// The same catch-up loses 5% of its datagrams: a lost window or pull leaves
// p2 short of the round its next pull waits for, and the spaced pulls and
// gossip must still take it the rest of the way. It takes 180-360 ms under
// Paxos and 13-61 ms under coord (240-450 and 73-134 ms with pulls spaced
// 8 ms and backlog proposals).
void catches_up_under_loss(ConsensusKind engine) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    EXPECT_TRUE(catch_up_after(engine, seed, 0.05, false).done);
  }
}
TEST(AbBasic, DeepLaggardCatchesUpUnderLossPaxos) {
  catches_up_under_loss(ConsensusKind::kPaxos);
}
TEST(AbBasic, DeepLaggardCatchesUpUnderLossCoord) {
  catches_up_under_loss(ConsensusKind::kCoord);
}

// A recovering p2 gets its first gossip back after it has applied a window
// of decisions, so the copy shows it behind itself. It must not offer
// itself the decisions in between: they would be 64 DECIDED datagrams per
// gossip that carry nothing new.
TEST(AbBasic, LaggardOffersItselfNoDecisions) {
  sim::Simulation sim(
      {.n = 3, .seed = 43, .net = {.delay_min = micros(50),
                                   .delay_max = micros(200)}});
  std::array<std::uint64_t, 3> self_decided{};
  sim.set_node_factory([&](Env& env) {
    return std::make_unique<LateSelfGossip>(env, self_decided[env.self()]);
  });
  const auto ab = [&](ProcessId p) -> core::AtomicBroadcast& {
    return static_cast<LateSelfGossip*>(sim.node(p))->ab();
  };
  sim.start_all();
  sim.crash(2);
  for (int i = 0; i < 300; ++i) {
    ab(0).broadcast({});
    sim.run_for(micros(500));
  }
  ASSERT_TRUE(sim.recover(2));
  const std::uint64_t target = ab(0).round();
  ASSERT_GE(target, 200u);
  ASSERT_TRUE(sim.run_until_pred([&] { return ab(2).round() >= target; },
                                 sim.now() + seconds(10)));
  EXPECT_EQ(self_decided[2], 0u);
}

// FaultyStorage's read rot flips a bit in the copy a get() returns, never
// in the medium. A decision read that fails its seal is retried, so a
// single flip costs nothing; a record read damaged twice in a row restarts
// the process, whose peers and own recovery keep the oracle clean.
TEST(AbBasic, DecisionReadsRetryReadRot) {
  Cluster c(basic_config(3, 42));
  c.start_all();
  const auto ids = order_rounds_without_p2(c, 400);
  ASSERT_EQ(ids.size(), 400u);
  StorageFaultProfile rot;
  rot.read_bit_flip_prob = 0.2;
  for (const ProcessId p : {0u, 1u}) {
    c.sim().host(p).faulty_storage().set_profile(rot);
  }
  ASSERT_TRUE(c.sim().recover(2));
  // Serve p2 under rot, restarting (without rot) a server that crashed.
  for (int step = 0; step < 600 && !c.oracle().all_delivered(ids, {0, 1, 2});
       ++step) {
    c.sim().run_for(millis(50));
    for (const ProcessId p : {0u, 1u}) {
      if (c.sim().host(p).is_up()) continue;
      c.sim().host(p).faulty_storage().set_profile(StorageFaultProfile{});
      ASSERT_TRUE(c.sim().recover(p));
    }
  }
  ASSERT_TRUE(c.oracle().all_delivered(ids, {0, 1, 2}));
  std::uint64_t flips = 0;
  std::uint64_t crashes = 0;
  for (const ProcessId p : {0u, 1u}) {
    flips += c.sim().host(p).faulty_storage().fault_stats().bit_flips;
    crashes += c.sim().host(p).stats().storage_crashes;
  }
  // A crash takes two flips of one read in a row; each other flip was a
  // read whose retry recovered it.
  EXPECT_GT(flips, 2 * crashes);
  c.oracle().check();
}

TEST(AbBasic, DecisionReadFailingTwiceRestartsTheProcess) {
  Cluster c(basic_config(3, 43));
  c.start_all();
  const auto ids = order_rounds_without_p2(c, 400);
  ASSERT_EQ(ids.size(), 400u);
  StorageFaultProfile rot;
  rot.read_bit_flip_prob = 1.0;
  c.sim().host(0).faulty_storage().set_profile(rot);
  ASSERT_TRUE(c.sim().recover(2));
  // p0's first read of an old decision for p2 fails its seal twice.
  ASSERT_TRUE(c.sim().run_until_pred([&] { return !c.sim().host(0).is_up(); },
                                     c.sim().now() + seconds(10)));
  EXPECT_EQ(c.sim().host(0).stats().storage_crashes, 1u);
  EXPECT_EQ(c.sim().host(0).faulty_storage().fault_stats().bit_flips, 2u);
  c.sim().host(0).faulty_storage().set_profile(StorageFaultProfile{});
  ASSERT_TRUE(c.sim().recover(0));
  ASSERT_TRUE(c.await_delivery(ids, {0, 1, 2}, seconds(120)));
  c.oracle().check();
}
