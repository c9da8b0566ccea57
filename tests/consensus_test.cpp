// Tests for the crash-recovery consensus engines, run against both engines
// via parameterized suites: Uniform Validity, Uniform Agreement (including
// across crash/recovery), Termination, proposal idempotence (P4), decision
// stability (P5), multi-instance independence, truncation semantics, and
// that an engine holds state only for undecided instances.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "consensus/consensus.hpp"
#include "consensus/consensus_wire.hpp"
#include "consensus/keys.hpp"
#include "fd/failure_detector.hpp"
#include "sim/simulation.hpp"
#include "storage/mem_storage.hpp"

using namespace abcast;
using namespace abcast::sim;

namespace {

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Shared (crash-surviving) observation record for one process.
struct Observed {
  // Every (instance, value) pair the decided callback reported, in order.
  std::vector<std::pair<InstanceId, Bytes>> decisions;
  std::vector<std::pair<ProcessId, InstanceId>> obsolete_pings;
  // When set and true for an arriving message, the message is lost.
  std::function<bool(ProcessId from, const Wire& msg)> drop;
};

class ConsNode final : public NodeApp {
 public:
  ConsNode(Env& env, ConsensusKind kind, Observed& obs)
      : fd_(env),
        cons_(make_consensus(kind, env, fd_)),
        obs_(obs) {
    cons_->set_decided_callback([this](InstanceId k, const Bytes& v) {
      obs_.decisions.emplace_back(k, v);
    });
    cons_->set_obsolete_callback([this](ProcessId from, InstanceId k) {
      obs_.obsolete_pings.emplace_back(from, k);
    });
  }

  void start(bool) override {
    fd_.start();
    cons_->start(fd_.incarnation());
  }
  void on_message(ProcessId from, const Wire& msg) override {
    if (obs_.drop && obs_.drop(from, msg)) return;
    if (fd_.handles(msg.type)) {
      fd_.on_message(from, msg);
    } else if (cons_->handles(msg.type)) {
      cons_->on_message(from, msg);
    }
  }

  ConsensusService& cons() { return *cons_; }

 private:
  EpochFailureDetector fd_;
  std::unique_ptr<ConsensusService> cons_;
  Observed& obs_;
};

struct ConsCluster {
  ConsCluster(SimConfig cfg, ConsensusKind kind)
      : sim(cfg), observed(cfg.n) {
    sim.set_node_factory([this, kind](Env& env) {
      return std::make_unique<ConsNode>(env, kind, observed[env.self()]);
    });
    sim.start_all();
  }

  ConsensusService& cons(ProcessId p) {
    return static_cast<ConsNode*>(sim.node(p))->cons();
  }

  bool await_decision(InstanceId k, std::vector<ProcessId> at,
                      Duration timeout = seconds(60)) {
    return sim.run_until_pred(
        [&] {
          for (const ProcessId p : at) {
            if (!sim.host(p).is_up()) return false;
            if (!cons(p).decision(k)) return false;
          }
          return true;
        },
        sim.now() + timeout);
  }

  Simulation sim;
  std::vector<Observed> observed;
};

class EngineTest : public ::testing::TestWithParam<ConsensusKind> {};

}  // namespace

TEST_P(EngineTest, DecidesAProposedValue) {
  ConsCluster c({.n = 3, .seed = 1}, GetParam());
  c.cons(0).propose(0, val("alpha"));
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}));
  // Uniform validity: the only proposal was "alpha".
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(*c.cons(p).decision(0), val("alpha")) << "p" << p;
  }
}

TEST_P(EngineTest, AgreementWithConcurrentProposers) {
  ConsCluster c({.n = 5, .seed = 2}, GetParam());
  for (ProcessId p = 0; p < 5; ++p) {
    c.cons(p).propose(0, val("v" + std::to_string(p)));
  }
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2, 3, 4}));
  const Bytes d = *c.cons(0).decision(0);
  bool was_proposed = false;
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(*c.cons(p).decision(0), d);
    was_proposed |= d == val("v" + std::to_string(p));
  }
  EXPECT_TRUE(was_proposed);
}

TEST_P(EngineTest, AgreementUnderLossyDuplicatingNetwork) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimConfig cfg{.n = 5, .seed = seed};
    cfg.net.drop_prob = 0.25;
    cfg.net.dup_prob = 0.15;
    ConsCluster c(cfg, GetParam());
    for (ProcessId p = 0; p < 5; ++p) {
      c.cons(p).propose(0, val("v" + std::to_string(p)));
    }
    ASSERT_TRUE(c.await_decision(0, {0, 1, 2, 3, 4})) << "seed " << seed;
    const Bytes d = *c.cons(0).decision(0);
    for (ProcessId p = 1; p < 5; ++p) EXPECT_EQ(*c.cons(p).decision(0), d);
  }
}

TEST_P(EngineTest, ProposalIsIdempotentAndFirstValueWins) {
  ConsCluster c({.n = 3, .seed = 3}, GetParam());
  c.cons(0).propose(0, val("first"));
  c.cons(0).propose(0, val("second"));  // ignored (P4)
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}));
  EXPECT_EQ(*c.cons(0).decision(0), val("first"));
}

TEST_P(EngineTest, ProposerReproposesSameValueAfterCrash) {
  // P4: the proposal is logged before anything else, so the same value is
  // re-proposed after recovery even if the caller passes something else.
  ConsCluster c({.n = 3, .seed = 4}, GetParam());
  // Isolate p0 so instance 0 cannot finish before the crash.
  c.sim.partition({0});
  c.cons(0).propose(0, val("durable"));
  c.sim.run_for(millis(50));
  c.sim.crash(0);
  c.sim.heal_partition();
  c.sim.recover(0);
  c.cons(0).propose(0, val("impostor"));  // must be ignored
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}));
  EXPECT_EQ(*c.cons(0).decision(0), val("durable"));
}

TEST_P(EngineTest, DecisionSurvivesCrashRecovery) {
  ConsCluster c({.n = 3, .seed = 5}, GetParam());
  c.cons(1).propose(0, val("keep"));
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}));
  c.sim.crash(1);
  c.sim.recover(1);
  // P5: the decision is immediately available from the log after recovery.
  ASSERT_TRUE(c.cons(1).decision(0).has_value());
  EXPECT_EQ(*c.cons(1).decision(0), val("keep"));
}

TEST_P(EngineTest, UniformAgreementAcrossIncarnations) {
  // A process that decides, crashes, and recovers must never observe a
  // different decision (Uniform Agreement includes bad processes).
  ConsCluster c({.n = 3, .seed = 6}, GetParam());
  c.cons(2).propose(0, val("x"));
  ASSERT_TRUE(c.await_decision(0, {2}));
  const Bytes before = *c.cons(2).decision(0);
  for (int i = 0; i < 3; ++i) {
    c.sim.crash(2);
    c.sim.run_for(millis(100));
    c.sim.recover(2);
    ASSERT_TRUE(c.await_decision(0, {2}));
    EXPECT_EQ(*c.cons(2).decision(0), before);
  }
}

TEST_P(EngineTest, DecisionSpreadsWhenDeciderDiesForever) {
  // The decider may be the only process that learned the outcome; after it
  // dies, the remaining majority must still be able to (re)decide the same
  // value when they propose.
  ConsCluster c({.n = 3, .seed = 7}, GetParam());
  c.cons(0).propose(0, val("orphan"));
  ASSERT_TRUE(c.await_decision(0, {0}));
  c.sim.crash(0);  // never recovers
  c.cons(1).propose(0, val("other1"));
  c.cons(2).propose(0, val("other2"));
  ASSERT_TRUE(c.await_decision(0, {1, 2}));
  EXPECT_EQ(*c.cons(1).decision(0), val("orphan"));
  EXPECT_EQ(*c.cons(2).decision(0), val("orphan"));
}

TEST_P(EngineTest, NoProgressWithoutMajorityThenProgressAfterRecovery) {
  ConsCluster c({.n = 3, .seed = 8}, GetParam());
  c.sim.crash(1);
  c.sim.crash(2);
  c.cons(0).propose(0, val("stalled"));
  EXPECT_FALSE(c.await_decision(0, {0}, seconds(5)));  // minority blocks
  c.sim.recover(1);
  ASSERT_TRUE(c.await_decision(0, {0, 1}, seconds(60)));
  EXPECT_EQ(*c.cons(1).decision(0), val("stalled"));
}

TEST_P(EngineTest, ManyInstancesAreIndependent) {
  ConsCluster c({.n = 3, .seed = 9}, GetParam());
  const int kInstances = 20;
  for (int k = 0; k < kInstances; ++k) {
    const ProcessId proposer = static_cast<ProcessId>(k % 3);
    c.cons(proposer).propose(static_cast<InstanceId>(k),
                             val("inst" + std::to_string(k)));
  }
  for (int k = 0; k < kInstances; ++k) {
    ASSERT_TRUE(c.await_decision(static_cast<InstanceId>(k), {0, 1, 2}));
    EXPECT_EQ(*c.cons(0).decision(static_cast<InstanceId>(k)),
              val("inst" + std::to_string(k)));
  }
}

TEST_P(EngineTest, DecidedCallbackFiresOncePerInstance) {
  ConsCluster c({.n = 3, .seed = 10}, GetParam());
  c.cons(0).propose(0, val("once"));
  c.cons(0).propose(1, val("twice"));
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}));
  ASSERT_TRUE(c.await_decision(1, {0, 1, 2}));
  c.sim.run_for(seconds(2));  // let late duplicates arrive
  for (ProcessId p = 0; p < 3; ++p) {
    std::map<InstanceId, int> counts;
    for (const auto& [k, v] : c.observed[p].decisions) counts[k] += 1;
    EXPECT_EQ(counts[0], 1) << "p" << p;
    EXPECT_EQ(counts[1], 1) << "p" << p;
  }
}

TEST_P(EngineTest, ProposedPredicateTracksDurableProposals) {
  ConsCluster c({.n = 3, .seed = 11}, GetParam());
  EXPECT_FALSE(c.cons(0).proposed(0));
  c.cons(0).propose(0, val("p"));
  EXPECT_TRUE(c.cons(0).proposed(0));
  c.sim.crash(0);
  c.sim.recover(0);
  EXPECT_TRUE(c.cons(0).proposed(0));  // reloaded from the log
}

TEST_P(EngineTest, EmptyValueIsLegal) {
  ConsCluster c({.n = 3, .seed = 12}, GetParam());
  c.cons(0).propose(0, Bytes{});
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}));
  EXPECT_TRUE(c.cons(1).decision(0)->empty());
}

TEST_P(EngineTest, TruncationDropsRecordsAndIgnoresOldInstances) {
  ConsCluster c({.n = 3, .seed = 13}, GetParam());
  for (InstanceId k = 0; k < 5; ++k) {
    c.cons(0).propose(k, val("k" + std::to_string(k)));
    ASSERT_TRUE(c.await_decision(k, {0, 1, 2}));
  }
  c.sim.run_for(seconds(2));  // drain in-flight traffic
  // p0's stored consensus records per family ("prop", "dec" and the
  // engine's own), split into {below instance 3, at or above it}. Read
  // from the medium itself: the engine's maps do not list decided
  // instances, so only the stored keys show what truncation erased.
  const auto records = [&c] {
    std::map<std::string, std::pair<int, int>> out;
    for (const auto& key :
         c.sim.host(0).raw_storage().keys_with_prefix("cons/")) {
      const std::string rest = key.substr(5);
      if (rest.rfind("trunc", 0) == 0) continue;  // the low-water mark
      const auto slash = rest.find('/');
      auto& [below, above] = out[rest.substr(0, slash)];
      (std::stoull(rest.substr(slash + 1)) < 3 ? below : above) += 1;
    }
    return out;
  };
  const std::vector<std::string> families{
      "prop", "dec", GetParam() == ConsensusKind::kPaxos ? "acc" : "st"};
  const auto before = records();
  for (const auto& family : families) {
    ASSERT_EQ(before.count(family), 1u) << family;
    EXPECT_EQ(before.at(family).first, 3) << family;
  }
  const auto expect_truncated = [&] {
    const auto now = records();
    EXPECT_EQ(now.size(), before.size());
    for (const auto& [family, counts] : now) {
      EXPECT_EQ(counts.first, 0) << family << " records below the mark";
      EXPECT_EQ(counts.second, before.at(family).second) << family;
    }
  };

  c.cons(0).truncate_below(3);
  EXPECT_EQ(c.cons(0).low_water(), 3u);
  EXPECT_FALSE(c.cons(0).decision(0).has_value());
  EXPECT_FALSE(c.cons(0).proposed(2));
  EXPECT_TRUE(c.cons(0).decision(3).has_value());
  expect_truncated();
  // Durable: still truncated after crash-recovery.
  c.sim.crash(0);
  c.sim.recover(0);
  EXPECT_EQ(c.cons(0).low_water(), 3u);
  EXPECT_FALSE(c.cons(0).decision(1).has_value());
  EXPECT_TRUE(c.cons(0).decision(4).has_value());
  expect_truncated();
}

TEST_P(EngineTest, DecidedInstancesLeaveTheEngine) {
  // Consensus holds only undecided instances: an engine forgets an
  // instance once it decides, and recovery reloads no decided one, so the
  // driver tick walks only live work however long the history grows.
  ConsCluster c({.n = 3, .seed = 18}, GetParam());
  for (InstanceId k = 0; k < 40; ++k) {
    c.cons(0).propose(k, val("v" + std::to_string(k)));
  }
  for (InstanceId k = 0; k < 40; ++k) {
    ASSERT_TRUE(c.await_decision(k, {0, 1, 2})) << "instance " << k;
  }
  c.sim.run_for(seconds(2));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.cons(p).live_instances(), 0u) << "p" << p;
  }
  c.sim.crash(1);
  c.sim.recover(1);
  EXPECT_EQ(c.cons(1).live_instances(), 0u);
  EXPECT_EQ(*c.cons(1).decision(39), val("v39"));  // the log still has it
  // Without a majority, a fresh instance stays undecided, and live.
  c.sim.crash(1);
  c.sim.crash(2);
  c.cons(0).propose(40, val("v40"));
  c.sim.run_for(seconds(1));
  EXPECT_FALSE(c.cons(0).decided(40));
  EXPECT_EQ(c.cons(0).live_instances(), 1u);
}

TEST_P(EngineTest, ObsoleteCallbackFiresForTruncatedInstanceTraffic) {
  // p2 sleeps through instances 0..4; the survivors then truncate. When p2
  // comes back and proposes an ancient instance, its traffic must trigger
  // the obsolete callback (the upper layer's cue to send a state transfer).
  ConsCluster c({.n = 3, .seed = 14}, GetParam());
  c.sim.crash(2);
  for (InstanceId k = 0; k < 5; ++k) {
    c.cons(0).propose(k, val("v" + std::to_string(k)));
    ASSERT_TRUE(c.await_decision(k, {0, 1}));
  }
  c.sim.run_for(seconds(3));
  c.cons(0).truncate_below(5);
  c.cons(1).truncate_below(5);
  c.sim.recover(2);
  c.cons(2).propose(0, val("late"));
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] { return !c.observed[0].obsolete_pings.empty() ||
                   !c.observed[1].obsolete_pings.empty(); },
      c.sim.now() + seconds(30)));
  const auto& pings = c.observed[0].obsolete_pings.empty()
                          ? c.observed[1].obsolete_pings
                          : c.observed[0].obsolete_pings;
  EXPECT_EQ(pings.front().first, 2u);
  EXPECT_LT(pings.front().second, 5u);
}

TEST_P(EngineTest, OfferDecisionsPushesKnownOutcomes) {
  ConsCluster c({.n = 3, .seed = 16}, GetParam());
  // Decide instances 0..2 while p2 is down: it must not learn them.
  c.sim.crash(2);
  for (InstanceId k = 0; k < 3; ++k) {
    c.cons(0).propose(k, val("d" + std::to_string(k)));
    ASSERT_TRUE(c.await_decision(k, {0, 1}));
  }
  c.sim.run_for(seconds(3));
  c.sim.recover(2);
  EXPECT_FALSE(c.cons(2).decision(0).has_value());
  c.cons(0).offer_decisions(2, 0, 16);
  for (InstanceId k = 0; k < 3; ++k) {
    ASSERT_TRUE(c.await_decision(k, {2})) << "instance " << k;
  }
  EXPECT_EQ(*c.cons(2).decision(1), val("d1"));
}

// The decided set is a watermark plus a sparse set above it: decided() and
// offer_decisions() skip undecided gaps, truncation lifts the watermark,
// and an instance that closes a gap joins the watermark with the decided
// ones above it.
TEST_P(EngineTest, DecidedSetSkipsGapsAndFollowsTruncation) {
  ConsCluster c({.n = 3, .seed = 19}, GetParam());
  c.sim.crash(2);
  const std::vector<InstanceId> decided{0, 1, 3, 5};
  for (const InstanceId k : decided) {
    c.cons(0).propose(k, val("g" + std::to_string(k)));
    ASSERT_TRUE(c.await_decision(k, {0, 1})) << "instance " << k;
  }
  for (const InstanceId k : decided) EXPECT_TRUE(c.cons(0).decided(k));
  for (const InstanceId k : std::vector<InstanceId>{2, 4, 6}) {
    EXPECT_FALSE(c.cons(0).decided(k));
    EXPECT_FALSE(c.cons(0).decision(k).has_value());
  }
  c.sim.run_for(seconds(3));
  ASSERT_TRUE(c.sim.recover(2));
  c.cons(0).offer_decisions(2, 1, 2);  // 1 and 3, across the gap at 2
  ASSERT_TRUE(c.await_decision(3, {2}));
  c.sim.run_for(seconds(1));
  EXPECT_EQ(*c.cons(2).decision(1), val("g1"));
  EXPECT_FALSE(c.cons(2).decided(0));
  EXPECT_FALSE(c.cons(2).decided(5));

  c.cons(0).truncate_below(4);
  EXPECT_FALSE(c.cons(0).decided(3));
  EXPECT_TRUE(c.cons(0).decided(5));
  c.cons(0).propose(4, val("g4"));
  ASSERT_TRUE(c.await_decision(4, {0}));
  EXPECT_TRUE(c.cons(0).decided(4));
  EXPECT_EQ(*c.cons(0).decision(5), val("g5"));
  EXPECT_FALSE(c.cons(0).decided(6));
}

TEST_P(EngineTest, MetricsAccount) {
  ConsCluster c({.n = 3, .seed = 17}, GetParam());
  c.cons(0).propose(0, val("m"));
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}));
  EXPECT_EQ(c.cons(0).metrics().proposals, 1u);
  EXPECT_GE(c.cons(0).metrics().decided_local +
                c.cons(0).metrics().decided_learned,
            1u);
  EXPECT_GE(c.cons(0).storage_stats().put_ops, 2u);  // proposal + decision
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest,
                         ::testing::Values(ConsensusKind::kPaxos,
                                           ConsensusKind::kCoord),
                         [](const ::testing::TestParamInfo<ConsensusKind>&
                                pinfo) {
                           return std::string(to_string(pinfo.param));
                         });

TEST_P(EngineTest, SevenProcessAgreementUnderHeavyLossSweep) {
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    SimConfig cfg{.n = 7, .seed = seed};
    cfg.net.drop_prob = 0.3;
    ConsCluster c(cfg, GetParam());
    for (ProcessId p = 0; p < 7; ++p) {
      c.cons(p).propose(0, val("v" + std::to_string(p)));
    }
    ASSERT_TRUE(c.await_decision(0, {0, 1, 2, 3, 4, 5, 6}, seconds(300)))
        << "seed " << seed;
    const Bytes d = *c.cons(0).decision(0);
    for (ProcessId p = 1; p < 7; ++p) {
      EXPECT_EQ(*c.cons(p).decision(0), d) << "seed " << seed;
    }
  }
}

TEST_P(EngineTest, CoordinatorOrLeaderPartitionedAwayMidInstance) {
  // The driver (leader/coordinator, p0 for instance 0) is cut off mid
  // instance; the rest must still decide once they suspect it, and p0 must
  // converge to the same decision after healing.
  ConsCluster c({.n = 5, .seed = 45}, GetParam());
  c.sim.run_for(millis(300));  // detectors settle
  c.cons(0).propose(0, val("from-driver"));
  c.sim.run_for(millis(20));   // the first phase is in flight
  c.sim.partition({0});
  c.cons(1).propose(0, val("from-backup"));
  ASSERT_TRUE(c.await_decision(0, {1, 2, 3, 4}, seconds(120)));
  const Bytes d = *c.cons(1).decision(0);
  c.sim.heal_partition();
  ASSERT_TRUE(c.await_decision(0, {0}, seconds(120)));
  EXPECT_EQ(*c.cons(0).decision(0), d);
}

// A value a majority locked in round 0 must outrank every initial estimate
// in a later round. Round 0's coordinator p0 and participant p1 lock v, and
// p0 decides it and dies; p1 then coordinates round 1 from its own locked
// v and p2's initial w. An adoption stamped with round 0's own number tied
// with w's initial timestamp, the tie went to the higher process id, and
// p1 decided w.
TEST(CoordEngine, RoundZeroLockOutranksInitialEstimates) {
  using consensus_wire::EstimateMsg;
  using consensus_wire::NewEstimateMsg;
  using consensus_wire::RoundMsg;
  ConsCluster c({.n = 3, .seed = 61}, ConsensusKind::kCoord);
  c.sim.crash(0);
  c.sim.crash(2);
  ConsensusService& p1 = c.cons(1);
  p1.on_message(0, make_wire(MsgType::kCoordNewEstimate,
                             NewEstimateMsg{0, 0, val("v")}));
  p1.on_message(2, make_wire(MsgType::kCoordEstimate,
                             EstimateMsg{0, 1, 0, val("w")}));
  c.sim.run_for(millis(1));  // p1's own round-1 NewEstimate and ack
  p1.on_message(2, make_wire(MsgType::kCoordAck, RoundMsg{0, 1}));
  c.sim.run_for(millis(1));
  ASSERT_TRUE(p1.decided(0));
  EXPECT_EQ(*p1.decision(0), val("v"));
}

namespace {

// Flips one byte in the middle of a stored record, as a torn put or bit rot
// would: recovery finds it fails its seal, counts it and erases it.
void tear_record(StableStorage& storage, const std::string& key) {
  auto raw = storage.get(key);
  ASSERT_TRUE(raw.has_value()) << key;
  auto& byte = (*raw)[raw->size() / 2];
  byte = static_cast<std::uint8_t>(byte ^ 0xFFu);
  storage.put(key, *raw);
}

std::string cons_key(const char* family, InstanceId k) {
  return "cons/" + consensus_keys::inst_key(family, k);
}

// A drop filter that loses the first message of `type` from `sender` and
// counts it in `lost`.
std::function<bool(ProcessId, const Wire&)> lose_first(ProcessId sender,
                                                       MsgType type,
                                                       int& lost) {
  return [&lost, sender, type, done = false](ProcessId from,
                                             const Wire& msg) mutable {
    if (done || from != sender || msg.type != type) return false;
    done = true;
    lost += 1;
    return true;
  };
}

// A drop filter that loses nothing and records the ballot of every PREPARE
// from `sender`.
std::function<bool(ProcessId, const Wire&)> record_prepares(
    ProcessId sender, std::vector<std::uint64_t>& ballots) {
  return [&ballots, sender](ProcessId from, const Wire& msg) {
    if (from == sender && msg.type == MsgType::kPaxosPrepare) {
      ballots.push_back(
          decode_from_bytes<consensus_wire::PrepareMsg>(msg.payload).ballot);
    }
    return false;
  };
}

}  // namespace

// Ballot 1 skips phase 1 only in p0's first incarnation. p0 decides v at
// ballot 1 on p1's and p2's accepts (its own copy of the ACCEPT is lost, so
// it keeps no acceptor record), p1 learns v, and the DECIDED to p2 is lost.
// p0 then crashes and recovers with its proposal and decision records torn,
// so nothing it holds names v. Were it to send ACCEPT(1, w) straight away,
// p2 would overwrite (1, v) and p0 would decide w against p1's v. The
// recovered p0 runs phase 1 of ballot 1 + n instead, which draws (1, v)
// back from p2.
TEST(PaxosEngine, RecoveredLeaderRunsPhaseOneAboveBallotOne) {
  ConsCluster c({.n = 3, .seed = 62}, ConsensusKind::kPaxos);
  int lost = 0;
  c.observed[0].drop = lose_first(0, MsgType::kPaxosAccept, lost);
  c.observed[2].drop = lose_first(0, MsgType::kPaxosDecided, lost);
  c.cons(0).propose(0, val("v"));
  ASSERT_TRUE(c.await_decision(0, {0, 1}, millis(100)));
  ASSERT_TRUE(c.sim.run_until_pred([&] { return lost == 2; },
                                   c.sim.now() + millis(100)));
  ASSERT_FALSE(c.cons(2).decided(0));
  EXPECT_EQ(c.cons(0).metrics().attempts, 1u);
  EXPECT_EQ(c.sim.net_stats().sent_of(MsgType::kPaxosPrepare), 0u);

  c.sim.partition({1});  // p1 keeps v to itself
  c.sim.crash(0);
  StableStorage& stable = c.sim.host(0).raw_storage();
  EXPECT_FALSE(stable.get(cons_key("acc", 0)));
  tear_record(stable, cons_key("prop", 0));
  tear_record(stable, cons_key("dec", 0));
  ASSERT_TRUE(c.sim.recover(0));
  ASSERT_EQ(c.cons(0).metrics().corrupt_records, 2u);
  ASSERT_FALSE(c.cons(0).decided(0));

  std::vector<std::uint64_t> ballots;
  c.observed[2].drop = record_prepares(0, ballots);
  c.cons(0).propose(0, val("w"));
  ASSERT_TRUE(c.await_decision(0, {0, 2}, seconds(5)));
  EXPECT_EQ(*c.cons(0).decision(0), *c.cons(1).decision(0));  // v
  EXPECT_EQ(*c.cons(2).decision(0), val("v"));
  ASSERT_FALSE(ballots.empty());
  EXPECT_EQ(ballots.front(), 4u);  // 1 + n
}

// The same rule with p0's ACCEPT(1, v) to p2 still in flight when p0
// recovers. p0 pushed v to p1 only (its own copy is lost, as when p0
// crashes before handling it), crashed undecided and lost its proposal
// record. Were the recovered p0 to run
// ballot 1 again, p2 would accept (1, w) and p0 would decide w; the late
// ACCEPT(1, v) would then overwrite p2's (1, w), and p1 and p2, holding v at
// the highest ballot, would decide v. At ballot 1 + n, p2 refuses the late
// ACCEPT and w survives p0's crash.
TEST(PaxosEngine, LateBallotOneAcceptCannotOverwriteARecoveredLeader) {
  ConsCluster c({.n = 3, .seed = 64}, ConsensusKind::kPaxos);
  int lost = 0;
  c.observed[0].drop = lose_first(0, MsgType::kPaxosAccept, lost);
  std::optional<Wire> late;  // p0's ACCEPT(1, v) to p2, held back
  c.observed[2].drop = [&late](ProcessId from, const Wire& msg) {
    if (late || from != 0 || msg.type != MsgType::kPaxosAccept) return false;
    late = msg;
    return true;
  };
  c.cons(0).propose(0, val("v"));
  StableStorage& p1_stable = c.sim.host(1).raw_storage();
  ASSERT_TRUE(c.sim.run_until_pred(
      [&] { return lost == 1 && late && p1_stable.get(cons_key("acc", 0)); },
      c.sim.now() + millis(100)));
  ASSERT_FALSE(c.cons(0).decided(0));  // one accept of the two it needs

  c.sim.partition({1});
  c.sim.crash(0);
  StableStorage& stable = c.sim.host(0).raw_storage();
  EXPECT_FALSE(stable.get(cons_key("acc", 0)));
  EXPECT_FALSE(stable.get(cons_key("dec", 0)));
  tear_record(stable, cons_key("prop", 0));
  ASSERT_TRUE(c.sim.recover(0));
  ASSERT_EQ(c.cons(0).metrics().corrupt_records, 1u);

  // p0 decides w with p2. p2 never hears of the decision, and p0 crashes.
  std::vector<std::uint64_t> ballots;
  const auto record = record_prepares(0, ballots);
  c.observed[2].drop = [record](ProcessId from, const Wire& msg) {
    return record(from, msg) ||
           (from == 0 && msg.type == MsgType::kPaxosDecided);
  };
  c.cons(0).propose(0, val("w"));
  ASSERT_TRUE(c.await_decision(0, {0}, seconds(5)));
  EXPECT_EQ(*c.cons(0).decision(0), val("w"));
  ASSERT_FALSE(c.cons(2).decided(0));
  ASSERT_FALSE(ballots.empty());
  for (const std::uint64_t b : ballots) EXPECT_GT(b, 1u);
  c.sim.crash(0);
  c.sim.heal_partition();

  // The late ACCEPT(1, v) reaches p2; p1 and p2 then settle the instance.
  c.cons(2).on_message(0, *late);
  ASSERT_TRUE(c.await_decision(0, {1, 2}, seconds(10)));
  EXPECT_EQ(*c.cons(1).decision(0), val("w"));
  EXPECT_EQ(*c.cons(2).decision(0), val("w"));
}

// A non-nominee takes over an accepted, unlearned instance only once its
// patience (0.75 s for p1) has run since it heard of the instance, however
// long the process has been up.
TEST(PaxosEngine, TakeoverPatienceRunsFromWhenTheInstanceAppeared) {
  using consensus_wire::AcceptMsg;
  ConsCluster c({.n = 3, .seed = 63}, ConsensusKind::kPaxos);
  c.sim.run_for(seconds(2));  // well past p1's patience since start
  const std::string prop_key = cons_key("prop", 0);
  StableStorage& stable = c.sim.host(1).raw_storage();

  // p1 accepts a value for instance 0 from p0, which never follows it up.
  c.cons(1).on_message(0, make_wire(MsgType::kPaxosAccept,
                                    AcceptMsg{0, 1, val("orphan")}));
  c.sim.run_for(millis(600));
  EXPECT_FALSE(stable.get(prop_key).has_value());
  EXPECT_EQ(c.sim.net_stats().sent_of(MsgType::kPaxosPrepare), 0u);

  // Once its patience has run since the ACCEPT arrived, and not a second
  // patience later, p1 drives the value home.
  ASSERT_TRUE(c.await_decision(0, {0, 1, 2}, millis(300)));
  EXPECT_TRUE(stable.get(prop_key).has_value());  // the takeover's proposal
  EXPECT_GT(c.sim.net_stats().sent_of(MsgType::kPaxosPrepare), 0u);
  EXPECT_EQ(*c.cons(2).decision(0), val("orphan"));
}
