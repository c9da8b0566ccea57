// Unit tests for the adversarial scenario DSL (DESIGN.md §12): per-clause
// serialize/parse round-trips (one per registered clause kind — enforced
// by ablint's scenario-roundtrip rule), parser rejection of malformed
// lines, generator coverage (distinctness and clause-kind span), the
// windowed-latency accumulator, and the determinism regression: a
// known-nasty serialized scenario must replay to the identical global
// order, twice.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "obs/windowed.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

using namespace abcast;
using namespace abcast::scenario;

namespace {

/// Serialize -> parse -> compare, and re-serialize for good measure.
void expect_roundtrip(const Scenario& s) {
  const std::string line = s.serialize();
  std::string error;
  const auto parsed = Scenario::parse(line, &error);
  ASSERT_TRUE(parsed.has_value()) << line << " : " << error;
  EXPECT_EQ(*parsed, s) << line;
  EXPECT_EQ(parsed->serialize(), line);
}

Scenario base_scenario() {
  Scenario s;
  s.seed = 42;
  s.n = 3;
  s.horizon = millis(900);
  s.engine = ConsensusKind::kCoord;
  s.alternative = true;
  s.digest_gossip = true;
  return s;
}

}  // namespace

// ------------------------------------------------- per-clause round-trips

TEST(ScenarioRoundtrip, Header) {
  expect_roundtrip(base_scenario());
  Scenario s;  // all defaults, the other branch of every header field
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Partition) {
  // ablint:scenario-roundtrip part
  Scenario s = base_scenario();
  s.clauses.push_back(PartitionClause{millis(100), millis(250), {0, 2},
                                      sim::PartitionMode::kInbound});
  s.clauses.push_back(PartitionClause{millis(400), millis(100), {1},
                                      sim::PartitionMode::kOutbound});
  s.clauses.push_back(PartitionClause{millis(600), millis(100), {0},
                                      sim::PartitionMode::kSymmetric});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Flap) {
  // ablint:scenario-roundtrip flap
  Scenario s = base_scenario();
  s.clauses.push_back(FlapClause{millis(80), 1, 2, millis(40), 4});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Gray) {
  // ablint:scenario-roundtrip gray
  Scenario s = base_scenario();
  s.clauses.push_back(GrayClause{millis(120), millis(300), 1, 8.5});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Skew) {
  // ablint:scenario-roundtrip skew
  Scenario s = base_scenario();
  s.clauses.push_back(SkewClause{2, 1.4});
  s.clauses.push_back(SkewClause{0, 0.75});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Disk) {
  // ablint:scenario-roundtrip disk
  Scenario s = base_scenario();
  s.clauses.push_back(DiskClause{millis(200), millis(250), 0, micros(100),
                                 micros(1500), 0.02, millis(20)});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Burst) {
  // ablint:scenario-roundtrip burst
  Scenario s = base_scenario();
  s.clauses.push_back(BurstClause{millis(300), {0, 1}, millis(150)});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Storm) {
  // ablint:scenario-roundtrip storm
  Scenario s = base_scenario();
  s.clauses.push_back(
      StormClause{millis(150), 2, 5, CrashPhase::kTornWrite, 3, millis(90)});
  s.clauses.push_back(
      StormClause{millis(500), 0, 2, CrashPhase::kBeforeOp, 1, millis(60)});
  s.clauses.push_back(
      StormClause{millis(700), 1, 3, CrashPhase::kAfterOp, 1, millis(60)});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, Load) {
  // ablint:scenario-roundtrip load
  Scenario s = base_scenario();
  s.clauses.push_back(LoadClause{millis(10), millis(700), millis(3), 256, 32});
  expect_roundtrip(s);
}

TEST(ScenarioRoundtrip, EveryKindInOneLine) {
  Scenario s = base_scenario();
  s.clauses.push_back(PartitionClause{millis(100), millis(200), {0},
                                      sim::PartitionMode::kSymmetric});
  s.clauses.push_back(FlapClause{millis(80), 0, 1, millis(30), 2});
  s.clauses.push_back(GrayClause{millis(120), millis(200), 1, 12.0});
  s.clauses.push_back(SkewClause{2, 1.1});
  s.clauses.push_back(DiskClause{millis(200), millis(200), 0, micros(60),
                                 micros(800), 0.01, millis(10)});
  s.clauses.push_back(BurstClause{millis(350), {1}, millis(100)});
  s.clauses.push_back(
      StormClause{millis(500), 2, 4, CrashPhase::kAfterOp, 2, millis(70)});
  s.clauses.push_back(LoadClause{millis(0), millis(800), millis(5), 64, 16});
  ASSERT_EQ(s.clauses.size(), std::size(kScenarioClauseKinds));
  expect_roundtrip(s);
}

// --------------------------------------------------------- parse failures

TEST(ScenarioParse, RejectsMalformedLines) {
  const char* bad[] = {
      "",                                          // no header
      "scn2 seed=1",                               // wrong version
      "scn1 seed=abc",                             // bad integer
      "scn1 horizon=12parsecs",                    // bad duration unit
      "scn1 engine=raft",                          // unknown engine
      "scn1 warp(at=1ms)",                         // unknown clause
      "scn1 part(at=1ms,for=2ms,side=0)",          // missing mode
      "scn1 part(at=1ms,for=2ms,side=0,mode=up)",  // bad mode
      "scn1 n=3 part(at=1ms,for=2ms,side=0|7,mode=sym)",   // pid >= n
      "scn1 n=3 flap(at=1ms,a=1,b=1,period=4ms,count=2)",  // a == b
      "scn1 n=3 skew(node=0,scale=0)",             // scale must be > 0
      "scn1 n=3 storm(at=1ms,node=0,ops=0,phase=torn,times=1,gap=2ms)",
      "scn1 n=3 load(at=0s,for=1s,gap=0s,clients=4,bytes=8)",  // gap = 0
      "scn1 gray(at=1ms,for=2ms,node=0",           // unterminated clause
      "scn1 n=0",                                  // empty cluster
      // Fuzzing-campaign hardening (fuzz/corpus/scenario/): strtod accepts
      // nan/inf, and hot-without-keys did not survive serialize().
      "scn1 n=3 disk(at=1ms,for=1ms,node=0,min=1us,max=2us,stallp=nan,"
      "stall=1ms)",                                // nan probability
      "scn1 n=3 disk(at=1ms,for=1ms,node=0,min=1us,max=2us,stallp=1.5,"
      "stall=1ms)",                                // probability > 1
      "scn1 n=3 gray(at=1ms,for=1ms,node=0,rx=inf)",   // infinite factor
      "scn1 n=3 gray(at=1ms,for=1ms,node=0,rx=1e7)",   // factor above cap
      "scn1 n=3 skew(node=0,scale=inf)",               // infinite skew
      "scn1 n=3 load(at=0s,for=1ms,gap=1ms,clients=1,bytes=1,keys=0,"
      "hot=0.5)",  // hot without keys: serialize() would drop both
  };
  for (const char* line : bad) {
    std::string error;
    EXPECT_FALSE(Scenario::parse(line, &error).has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

// Resource caps: a line the parser accepts must be cheap to replay, so
// clause counts, process lists, and the line itself are bounded.
TEST(ScenarioParse, RejectsOversizedInputs) {
  std::string many_clauses = "scn1 n=3";
  for (int i = 0; i < 129; ++i) many_clauses += " skew(node=0,scale=1)";
  std::string error;
  EXPECT_FALSE(Scenario::parse(many_clauses, &error).has_value());
  EXPECT_NE(error.find("clauses"), std::string::npos);

  std::string many_pids = "scn1 n=3 burst(at=1ms,victims=0";
  for (int i = 0; i < 300; ++i) many_pids += "|1";
  many_pids += ",down=1ms)";
  error.clear();
  EXPECT_FALSE(Scenario::parse(many_pids, &error).has_value());
  EXPECT_NE(error.find("process list"), std::string::npos);

  const std::string long_line = "scn1 n=3 " + std::string(64 * 1024, ' ');
  error.clear();
  EXPECT_FALSE(Scenario::parse(long_line, &error).has_value());
  EXPECT_NE(error.find("bytes"), std::string::npos);

  // 128 clauses exactly is still accepted — the cap is not off by one.
  std::string at_cap = "scn1 n=3";
  for (int i = 0; i < 128; ++i) at_cap += " skew(node=0,scale=1)";
  EXPECT_TRUE(Scenario::parse(at_cap, nullptr).has_value());
}

TEST(ScenarioParse, ErrorMessagesNameTheProblem) {
  std::string error;
  Scenario::parse("scn1 part(at=1ms,for=2ms,side=0)", &error);
  EXPECT_NE(error.find("part"), std::string::npos);
  EXPECT_NE(error.find("mode"), std::string::npos);
}

// -------------------------------------------------------------- generator

TEST(ScenarioGenerator, TwoHundredSeedsAreDistinctAndSpanEveryKind) {
  std::set<std::string> lines;
  std::set<std::string> kinds;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Scenario s = generate_scenario(seed);
    EXPECT_EQ(s, generate_scenario(seed));  // generator is deterministic
    const std::string line = s.serialize();
    lines.insert(line);
    bool has_load = false;
    for (const auto& c : s.clauses) {
      kinds.insert(clause_kind(c));
      has_load |= std::holds_alternative<LoadClause>(c);
    }
    EXPECT_TRUE(has_load) << line;
    // Every generated scenario must survive the round-trip: a sweep
    // failure is only reproducible if its printed line parses back.
    std::string error;
    const auto parsed = Scenario::parse(line, &error);
    ASSERT_TRUE(parsed.has_value()) << line << " : " << error;
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(lines.size(), 200u);  // >= 200 distinct scenarios
  for (const char* kind : kScenarioClauseKinds) {
    EXPECT_EQ(kinds.count(kind), 1u) << "kind never generated: " << kind;
  }
}

TEST(ScenarioGenerator, CrossesEveryEngineVariantGossipCell) {
  std::set<std::tuple<bool, bool, bool>> cells;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Scenario s = generate_scenario(seed);
    cells.insert({s.engine == ConsensusKind::kCoord, s.alternative,
                  s.digest_gossip});
  }
  EXPECT_EQ(cells.size(), 8u);
}

// ------------------------------------------------------- windowed latency

TEST(WindowedLatency, BucketsByCompletionTime) {
  obs::WindowedLatency wl(0, millis(100));
  wl.record(millis(10), micros(500));
  wl.record(millis(90), micros(700));
  wl.record(millis(150), micros(900));
  const auto ws = wl.windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].start, 0);
  EXPECT_EQ(ws[0].end, millis(100));
  EXPECT_EQ(ws[0].count, 2u);
  EXPECT_EQ(ws[0].max, micros(700));
  EXPECT_EQ(ws[1].count, 1u);
  EXPECT_EQ(ws[1].p50, micros(900));
  EXPECT_EQ(wl.total_samples(), 3u);
  const auto all = wl.overall();
  EXPECT_EQ(all.count, 3u);
  EXPECT_EQ(all.start, 0);
  EXPECT_EQ(all.end, millis(200));
}

TEST(WindowedLatency, EmptyWindowsAreOmitted) {
  obs::WindowedLatency wl(0, millis(10));
  wl.record(millis(5), 1);
  wl.record(millis(95), 2);
  const auto ws = wl.windows();
  ASSERT_EQ(ws.size(), 2u);  // the 8 idle windows between them are gaps
  EXPECT_EQ(ws[0].start, 0);
  EXPECT_EQ(ws[1].start, millis(90));
}

TEST(WindowedLatency, PercentilesAreNearestRank) {
  std::vector<Duration> v;
  for (Duration d = 1; d <= 1000; ++d) v.push_back(d);
  EXPECT_EQ(obs::latency_percentile(v, 0.50), 500);
  EXPECT_EQ(obs::latency_percentile(v, 0.99), 990);
  EXPECT_EQ(obs::latency_percentile(v, 0.999), 999);
  EXPECT_EQ(obs::latency_percentile(v, 1.0), 1000);
  EXPECT_EQ(obs::latency_percentile({}, 0.5), 0);
  EXPECT_EQ(obs::latency_percentile({7}, 0.999), 7);
}

// ------------------------------------------------ determinism regression

// A hand-picked nasty line: an inbound partition overlapping a gray
// window on another node, a torn-write crash-point storm, a slow disk,
// clock skew, and open-loop load over the whole horizon. The serialized
// form is the reproducer contract: this exact string must keep parsing
// and must replay to the identical global delivery order every time.
constexpr const char* kNastyLine =
    "scn1 seed=1337 n=3 horizon=800ms engine=coord variant=alt "
    "gossip=digest "
    "load(at=10ms,for=700ms,gap=4ms,clients=64,bytes=24) "
    "part(at=120ms,for=200ms,side=1,mode=in) "
    "gray(at=250ms,for=220ms,node=2,rx=9.5) "
    "storm(at=150ms,node=0,ops=4,phase=torn,times=2,gap=120ms) "
    "disk(at=400ms,for=250ms,node=1,min=80us,max=900us,stallp=0.02,"
    "stall=15ms) "
    "skew(node=2,scale=1.3)";

TEST(ScenarioReplay, KnownNastyLineReplaysDeterministically) {
  std::string error;
  const auto s = Scenario::parse(kNastyLine, &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(s->serialize(), kNastyLine);

  const RunResult first = run_scenario(*s);
  EXPECT_TRUE(first.ok()) << kNastyLine << " : " << first.failure;
  EXPECT_GT(first.load.completed, 0u);
  EXPECT_GT(first.delivered_global, 0u);

  const RunResult second = run_scenario(*s);
  EXPECT_EQ(first.order_digest, second.order_digest);
  EXPECT_EQ(first.events_fired, second.events_fired);
  EXPECT_EQ(first.delivered_global, second.delivered_global);
  EXPECT_EQ(first.load.submitted, second.load.submitted);
}
