// Regression tests for bugs found during development, plus self-tests of
// the correctness oracle (a checker that cannot detect violations is worse
// than none). Each test documents the original failure mode.
#include <gtest/gtest.h>

#include "harness/fixture.hpp"
#include "harness/oracle.hpp"
#include "sim/simulation.hpp"

using namespace abcast;
using namespace abcast::harness;

// ---------------------------------------------------------------- sims

// Bug: Simulation::run_until(t) did not advance the virtual clock past the
// last event, so `run_for` loops stalled forever when the event queue went
// quiet (fault injectors then appeared to stop injecting).
TEST(Regression, RunForAdvancesTheClockThroughIdleGaps) {
  sim::Simulation sim({.n = 1, .seed = 1});
  sim.set_node_factory([](Env&) {
    struct Idle final : NodeApp {
      void start(bool) override {}
      void on_message(ProcessId, const Wire&) override {}
    };
    return std::make_unique<Idle>();
  });
  sim.start_all();
  for (int i = 0; i < 10; ++i) sim.run_for(millis(100));
  EXPECT_EQ(sim.now(), seconds(1));
}

// Bug: eager dissemination multisent SINGLE messages. On the non-FIFO
// channel, (p, s+1) could overtake (p, s) into another process's proposal;
// the vector-clock duplicate suppression then dropped (p, s) everywhere —
// silent message loss with all processes up. The fix sends the whole
// Unordered set, preserving the per-sender monotonicity invariant.
TEST(Regression, EagerDisseminationDoesNotDropReorderedMessages) {
  for (std::uint64_t seed = 900; seed < 905; ++seed) {
    ClusterConfig cfg;
    cfg.sim.n = 3;
    cfg.sim.seed = seed;
    cfg.sim.net.delay_min = millis(1);
    cfg.sim.net.delay_max = millis(15);  // wide jitter: heavy reordering
    cfg.stack.ab.eager_dissemination = true;
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    for (int burst = 0; burst < 25; ++burst) {
      for (ProcessId p = 0; p < 3; ++p) {
        ids.push_back(c.broadcast(p));
        ids.push_back(c.broadcast(p));  // same-sender pairs stress ordering
      }
      c.sim().run_for(millis(20));
    }
    ASSERT_TRUE(c.await_delivery(ids, {}, seconds(120))) << "seed " << seed;
    c.oracle().check();
  }
}

// Bug: a decider's own dissemination of a decision dies with it; when the
// decider of an old instance crashed, a lagging non-leader had no path to
// the decision and wedged. Gossip-triggered offer_decisions() is the fix.
TEST(Regression, LaggardLearnsDecisionAfterDeciderDies) {
  ClusterConfig cfg;
  cfg.sim.n = 5;
  cfg.sim.seed = 910;
  Cluster c(cfg);
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  ASSERT_TRUE(c.await_delivery(warm));

  c.sim().crash(4);  // the future laggard sleeps
  std::vector<MsgId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(millis(120));
  }
  ASSERT_TRUE(c.await_delivery(ids, {0, 1, 2, 3}));
  c.sim().run_for(seconds(3));
  c.sim().crash(0);             // a decider dies forever
  c.sim().recover(4);
  ASSERT_TRUE(c.await_delivery(ids, {1, 2, 3, 4}, seconds(120)));
  c.oracle().check();
}

// ------------------------------------------------------- oracle self-tests

namespace {

core::AppMsg msg_of(ProcessId sender, std::uint64_t seq) {
  core::AppMsg m;
  m.id = MsgId{sender, seq};
  return m;
}

}  // namespace

TEST(OracleSelfTest, DetectsValidityViolation) {
  Oracle oracle(2);
  // Delivering a message that was never broadcast must throw.
  EXPECT_THROW(oracle.on_deliver(0, msg_of(1, 1)), InvariantViolation);
}

TEST(OracleSelfTest, DetectsTotalOrderViolation) {
  Oracle oracle(2);
  oracle.on_broadcast(MsgId{0, 1}, 0);
  oracle.on_broadcast(MsgId{0, 2}, 0);
  oracle.on_deliver(0, msg_of(0, 1));
  oracle.on_deliver(0, msg_of(0, 2));
  oracle.on_deliver(1, msg_of(0, 1));
  // p1 now diverges: delivers a different message at position 1.
  EXPECT_THROW(oracle.on_deliver(1, msg_of(0, 3)), InvariantViolation);
}

TEST(OracleSelfTest, DetectsDuplicateOrdering) {
  Oracle oracle(2);
  oracle.on_broadcast(MsgId{0, 1}, 0);
  oracle.on_deliver(0, msg_of(0, 1));
  // The same message ordered again at a NEW global position.
  EXPECT_THROW(oracle.on_deliver(0, msg_of(0, 1)), InvariantViolation);
}

TEST(OracleSelfTest, AcceptsLegalReplayAfterRestart) {
  Oracle oracle(2);
  oracle.on_broadcast(MsgId{0, 1}, 0);
  oracle.on_broadcast(MsgId{0, 2}, 0);
  oracle.on_deliver(0, msg_of(0, 1));
  oracle.on_deliver(0, msg_of(0, 2));
  oracle.on_restart(0);  // crash + recovery: replays from scratch
  EXPECT_NO_THROW(oracle.on_deliver(0, msg_of(0, 1)));
  EXPECT_NO_THROW(oracle.on_deliver(0, msg_of(0, 2)));
  EXPECT_EQ(oracle.global_order().size(), 2u);
}

TEST(OracleSelfTest, DetectsCheckpointMismatch) {
  Oracle oracle(2);
  oracle.on_broadcast(MsgId{0, 1}, 0);
  oracle.on_deliver(0, msg_of(0, 1));
  const Bytes good = oracle.checkpoint_state(0);
  EXPECT_NO_THROW(oracle.install_state(1, good));
  // A forged checkpoint (wrong hash) must be rejected.
  Bytes bad = good;
  bad.back() ^= 0x1;
  EXPECT_THROW(oracle.install_state(1, bad), InvariantViolation);
}

TEST(OracleSelfTest, DetectsCheckpointBeyondGlobalOrder) {
  Oracle oracle(2);
  BufWriter w;
  w.u64(99);  // position far beyond anything delivered
  w.u64(0);
  EXPECT_THROW(oracle.install_state(0, w.data()), InvariantViolation);
}

TEST(OracleSelfTest, DetectsDuplicateBroadcastIds) {
  Oracle oracle(2);
  oracle.on_broadcast(MsgId{0, 1}, 0);
  EXPECT_THROW(oracle.on_broadcast(MsgId{0, 1}, 5), InvariantViolation);
}

// --------------------------------------------------- codec fuzz (truncation)

class CodecTruncationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecTruncationFuzz, TruncatedInputNeverCausesUb) {
  // Build a structurally valid encoding, then decode every truncation and
  // many random corruptions of it: the only acceptable outcomes are a
  // successful decode or CodecError — never a crash or hang.
  Rng rng(GetParam());
  BufWriter w;
  w.u32(7);
  w.str("key/with/slash");
  std::vector<core::AppMsg> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back({MsgId{static_cast<ProcessId>(i), rng.engine()()},
                     Bytes(static_cast<std::size_t>(rng.uniform(0, 40)),
                           0xAB)});
  }
  w.vec(batch, [](BufWriter& ww, const core::AppMsg& m) { m.encode(ww); });
  const Bytes full = w.data();

  auto try_decode = [](const Bytes& input) {
    try {
      BufReader r(input);
      r.u32();
      r.str();
      auto decoded = r.vec<core::AppMsg>(
          [](BufReader& rr) { return core::AppMsg::decode(rr); });
      r.expect_done();
      return decoded.size();
    } catch (const CodecError&) {
      return std::size_t{0};
    }
  };

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + static_cast<long>(cut));
    try_decode(truncated);
  }
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupted = full;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(full.size()) - 1));
    corrupted[pos] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    try_decode(corrupted);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecTruncationFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

// ------------------------------------------------ agreed-log dedup fuzz

TEST(AgreedLogFuzz, RandomBatchSequencesStayConsistentAcrossReplicas) {
  // Apply the same random batch sequence to two AgreedLogs and a decoded
  // copy mid-stream; all must agree on contents and totals.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    core::AgreedLog a(4), b(4);
    std::uint64_t delivered_a = 0, delivered_b = 0;
    for (int round = 0; round < 50; ++round) {
      std::vector<core::AppMsg> batch;
      const int size = static_cast<int>(rng.uniform(0, 6));
      for (int i = 0; i < size; ++i) {
        core::AppMsg m;
        m.id = MsgId{static_cast<ProcessId>(rng.uniform(0, 3)),
                     static_cast<std::uint64_t>(rng.uniform(1, 30))};
        batch.push_back(m);
      }
      delivered_a += a.append(batch).size();
      delivered_b += b.append(batch).size();
      if (round == 25) {
        // Round-trip b through its serialized form mid-stream.
        BufWriter w;
        b.encode(w);
        BufReader r(w.data());
        b = core::AgreedLog::decode(r);
      }
    }
    EXPECT_EQ(delivered_a, delivered_b) << "seed " << seed;
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.vc(), b.vc());
  }
}

// --------------------------------------------------------- harness pieces

#include <sstream>

#include "harness/table.hpp"

TEST(HarnessTable, AlignsColumnsAndSeparators) {
  Table t({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer-name", "22.50"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| longer-name |"), std::string::npos);
  EXPECT_NE(out.find("|------"), std::string::npos);
  // Header and 2 rows and separator = 4 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(HarnessTable, NumFormatsFixedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(0.5), "0.50");
}

TEST(HarnessTable, RowArityIsChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), InvariantViolation);
}
