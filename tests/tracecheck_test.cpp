// Library-level tests of the offline trace checker (obs::check_trace):
// fabricated traces with known property violations must be flagged, and
// legitimate crash/recovery shapes must pass.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/trace_check.hpp"

namespace abcast::obs {
namespace {

struct TraceBuilder {
  std::vector<TraceEvent> events;
  std::vector<std::uint64_t> next_seq;

  explicit TraceBuilder(std::size_t nodes) : next_seq(nodes, 0) {}

  TraceEvent& add(ProcessId node, EventKind kind, std::uint64_t k = 0,
                  MsgId msg = MsgId{}, std::uint64_t arg = 0,
                  std::string detail = {}) {
    TraceEvent e;
    e.kind = kind;
    e.node = node;
    e.seq = next_seq.at(node)++;
    e.t = static_cast<TimePoint>(events.size());
    e.k = k;
    e.msg = msg;
    e.arg = arg;
    e.detail = std::move(detail);
    events.push_back(e);
    return events.back();
  }
};

bool has_violation(const CheckReport& r, const std::string& property) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const Violation& v) { return v.property == property; });
}

CheckOptions strict() {
  CheckOptions o;
  o.require_quiesced = true;
  return o;
}

/// Two nodes, two messages from node 0, both delivered everywhere in order.
TraceBuilder clean_pair() {
  TraceBuilder b(2);
  const MsgId m0{0, 1}, m1{0, 2};
  b.add(0, EventKind::kBroadcast, 0, m0);
  b.add(0, EventKind::kBroadcast, 0, m1);
  for (ProcessId p = 0; p < 2; ++p) {
    b.add(p, EventKind::kDeliver, 0, m0, 0);
    b.add(p, EventKind::kDeliver, 0, m1, 1);
  }
  return b;
}

TEST(TraceCheckTest, CleanTracePasses) {
  const auto report = check_trace(clean_pair().events, strict());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_EQ(report.stats.nodes, 2u);
  EXPECT_EQ(report.stats.broadcasts, 2u);
  EXPECT_EQ(report.stats.delivers, 4u);
  EXPECT_EQ(report.stats.unique_delivered, 2u);
  EXPECT_EQ(report.stats.max_position, 2u);
}

TEST(TraceCheckTest, EventOrderIsRecoveredFromSeq) {
  auto b = clean_pair();
  std::reverse(b.events.begin(), b.events.end());  // merged out of order
  EXPECT_TRUE(check_trace(b.events, strict()).ok());
}

TEST(TraceCheckTest, DivergentOrderIsTotalOrderViolation) {
  auto b = clean_pair();
  // Node 1 delivers m1 at position 0 and m0 at position 1.
  for (auto& e : b.events) {
    if (e.node == 1 && e.kind == EventKind::kDeliver) {
      e.msg = (e.msg == MsgId{0, 1}) ? MsgId{0, 2} : MsgId{0, 1};
    }
  }
  const auto report = check_trace(b.events, strict());
  EXPECT_TRUE(has_violation(report, "TotalOrder"));
}

TEST(TraceCheckTest, DuplicateDeliveryIsIntegrityViolation) {
  auto b = clean_pair();
  b.add(1, EventKind::kDeliver, 1, MsgId{0, 1}, 2);
  EXPECT_TRUE(has_violation(check_trace(b.events, strict()), "Integrity"));
}

TEST(TraceCheckTest, PositionGapIsViolation) {
  TraceBuilder b(1);
  const MsgId m0{0, 1}, m1{0, 2};
  b.add(0, EventKind::kBroadcast, 0, m0);
  b.add(0, EventKind::kBroadcast, 0, m1);
  b.add(0, EventKind::kDeliver, 0, m0, 0);
  b.add(0, EventKind::kDeliver, 0, m1, 2);  // skips position 1
  CheckOptions lax;
  EXPECT_TRUE(has_violation(check_trace(b.events, lax), "TotalOrder"));
}

TEST(TraceCheckTest, DroppedDeliverFailsStrictTermination) {
  auto b = clean_pair();
  b.events.pop_back();  // node 1 never delivers m1
  const auto report = check_trace(b.events, strict());
  EXPECT_FALSE(report.ok());
  // Without quiescence the same trace is fine (the run may just be cut off).
  EXPECT_TRUE(check_trace(b.events, CheckOptions{}).ok());
}

TEST(TraceCheckTest, NeverDeliveredBroadcastFailsStrictValidity) {
  auto b = clean_pair();
  b.add(0, EventKind::kBroadcast, 1, MsgId{0, 3});
  EXPECT_TRUE(has_violation(check_trace(b.events, strict()), "Validity"));
}

TEST(TraceCheckTest, CrashAfterBroadcastDowngradesValidityToWarning) {
  auto b = clean_pair();
  b.add(0, EventKind::kBroadcast, 1, MsgId{0, 3});
  b.add(0, EventKind::kCrash);
  const auto report = check_trace(b.events, strict());
  // The message never reached anyone and its broadcaster crashed: the paper
  // does not oblige delivery. Termination still applies to node 1 though,
  // which is up and at the max position, so the trace is merely warned.
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
  EXPECT_FALSE(report.warnings.empty());
}

TEST(TraceCheckTest, RecoveryReplayAtSamePositionIsLegal) {
  TraceBuilder b(1);
  const MsgId m0{0, 1}, m1{0, 2};
  b.add(0, EventKind::kBroadcast, 0, m0);
  b.add(0, EventKind::kDeliver, 0, m0, 0);
  b.add(0, EventKind::kCrash);
  b.add(0, EventKind::kRecoverBegin);
  b.add(0, EventKind::kDeliver, 0, m0, 0);  // replay at the SAME position
  b.add(0, EventKind::kRecoverEnd, 0, MsgId{}, 1);
  b.add(0, EventKind::kBroadcast, 1, m1);
  b.add(0, EventKind::kDeliver, 1, m1, 1);
  EXPECT_TRUE(check_trace(b.events, strict()).ok());
}

TEST(TraceCheckTest, ReplayAtDifferentPositionIsIntegrityViolation) {
  TraceBuilder b(1);
  const MsgId m0{0, 1};
  b.add(0, EventKind::kBroadcast, 0, m0);
  b.add(0, EventKind::kDeliver, 0, m0, 0);
  b.add(0, EventKind::kCrash);
  b.add(0, EventKind::kRecoverBegin);
  b.add(0, EventKind::kDeliver, 0, m0, 1);  // replayed at a DIFFERENT slot
  CheckOptions lax;
  EXPECT_TRUE(has_violation(check_trace(b.events, lax), "Integrity"));
}

TEST(TraceCheckTest, StateTransferAdoptAllowsPositionJump) {
  TraceBuilder b(2);
  const MsgId m0{0, 1}, m1{0, 2}, m2{0, 3};
  b.add(0, EventKind::kBroadcast, 0, m0);
  b.add(0, EventKind::kBroadcast, 0, m1);
  b.add(0, EventKind::kBroadcast, 1, m2);
  for (const auto& [msg, pos] :
       {std::pair{m0, 0u}, {m1, 1u}, {m2, 2u}}) {
    b.add(0, EventKind::kDeliver, 0, msg, pos);
  }
  // Node 1 missed everything up to a checkpoint covering m0..m1 and installs
  // it, so its delivery starts at position 2.
  b.add(1, EventKind::kStateTransfer, 1, MsgId{}, 2, "adopt_snap");
  b.add(1, EventKind::kDeliver, 1, m2, 2);
  const auto report = check_trace(b.events, CheckOptions{});
  EXPECT_TRUE(report.ok());
}

TEST(TraceCheckTest, ConflictingDecisionsAreAgreementViolation) {
  TraceBuilder b(2);
  b.add(0, EventKind::kPropose, 1, MsgId{}, 111);
  b.add(0, EventKind::kDecide, 1, MsgId{}, 111, "local");
  b.add(1, EventKind::kDecide, 1, MsgId{}, 222, "learned");
  EXPECT_TRUE(has_violation(check_trace(b.events, CheckOptions{}),
                            "Agreement"));
}

TEST(TraceCheckTest, DoubleProposalLogIsLogMinimalityViolation) {
  TraceBuilder b(1);
  b.add(0, EventKind::kLogWrite, 0, MsgId{}, 32, "cons/prop/4");
  b.add(0, EventKind::kLogWrite, 0, MsgId{}, 32, "cons/prop/4");
  EXPECT_TRUE(has_violation(check_trace(b.events, CheckOptions{}),
                            "LogMinimality"));
}

TEST(TraceCheckTest, ProposalRelogAfterRecoveryIsLegal) {
  TraceBuilder b(1);
  b.add(0, EventKind::kLogWrite, 0, MsgId{}, 32, "cons/prop/4");
  b.add(0, EventKind::kCrash);
  b.add(0, EventKind::kRecoverBegin);
  b.add(0, EventKind::kLogWrite, 0, MsgId{}, 32, "cons/prop/4");
  EXPECT_TRUE(check_trace(b.events, CheckOptions{}).ok());
}

TEST(TraceCheckTest, AbLogWriteOnlyFlaggedInBasicMode) {
  TraceBuilder b(1);
  b.add(0, EventKind::kLogWrite, 0, MsgId{}, 64, "ab/unordered/1");
  EXPECT_TRUE(check_trace(b.events, CheckOptions{}).ok());
  CheckOptions basic;
  basic.basic_protocol = true;
  EXPECT_TRUE(has_violation(check_trace(b.events, basic), "LogMinimality"));
}

TEST(TraceCheckTest, ViolationToStringNamesProperty) {
  auto b = clean_pair();
  b.add(1, EventKind::kDeliver, 1, MsgId{0, 1}, 2);
  const auto report = check_trace(b.events, strict());
  ASSERT_FALSE(report.violations.empty());
  const std::string s = to_string(report.violations.front());
  EXPECT_NE(s.find(report.violations.front().property), std::string::npos);
}

}  // namespace
}  // namespace abcast::obs
