// VectorClock unit tests: covers/observe, per-incarnation supersession, and
// the codec round-trip (the clock travels inside checkpoints, §5.2).
#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "core/vector_clock.hpp"

namespace abcast::core {
namespace {

VectorClock make(std::initializer_list<std::uint64_t> seqs) {
  VectorClock vc(static_cast<std::uint32_t>(seqs.size()));
  ProcessId p = 0;
  for (const auto s : seqs) {
    if (s != 0) vc.observe(MsgId{p, s});
    ++p;
  }
  return vc;
}

TEST(VectorClockTest, CoversAndObserve) {
  VectorClock vc(3);
  EXPECT_FALSE(vc.covers(MsgId{1, 1}));
  vc.observe(MsgId{1, 1});
  vc.observe(MsgId{1, 2});
  EXPECT_TRUE(vc.covers(MsgId{1, 1}));
  EXPECT_TRUE(vc.covers(MsgId{1, 2}));
  EXPECT_FALSE(vc.covers(MsgId{1, 3}));
  EXPECT_FALSE(vc.covers(MsgId{0, 1}));
  EXPECT_EQ(vc.last_of(1), 2u);
  EXPECT_EQ(vc.last_of(0), 0u);
}

TEST(VectorClockTest, ObserveMustAdvance) {
  VectorClock vc(2);
  vc.observe(MsgId{0, 2});
  EXPECT_THROW(vc.observe(MsgId{0, 2}), InvariantViolation);
  EXPECT_THROW(vc.observe(MsgId{0, 1}), InvariantViolation);
}

// Supersession is per-incarnation: a later incarnation's messages never
// cover an earlier incarnation's — the property that keeps a recovered
// sender's durably logged broadcasts deliverable after its new-incarnation
// root was ordered first (see vector_clock.hpp header).
TEST(VectorClockTest, LaterIncarnationDoesNotCoverEarlierOne) {
  VectorClock vc(2);
  vc.observe(MsgId{0, make_seq(2, 1)});
  EXPECT_TRUE(vc.covers(MsgId{0, make_seq(2, 1)}));
  EXPECT_FALSE(vc.covers(MsgId{0, make_seq(1, 4)}));
  EXPECT_FALSE(vc.covers(MsgId{0, make_seq(1, 1)}));
  EXPECT_EQ(vc.last_of(0), make_seq(2, 1));

  // The earlier incarnation can still be observed AFTER the later one —
  // this is exactly the recovered-suffix delivery order.
  vc.observe(MsgId{0, make_seq(1, 4)});
  EXPECT_TRUE(vc.covers(MsgId{0, make_seq(1, 4)}));
  EXPECT_TRUE(vc.covers(MsgId{0, make_seq(1, 3)}));  // same-incarnation prefix
  EXPECT_FALSE(vc.covers(MsgId{0, make_seq(1, 5)}));
  vc.observe(MsgId{0, make_seq(1, 5)});
  EXPECT_TRUE(vc.covers(MsgId{0, make_seq(1, 5)}));
  // The frontier stays the newest incarnation's top.
  EXPECT_EQ(vc.last_of(0), make_seq(2, 1));
  // Within an incarnation the monotonicity contract still holds.
  EXPECT_THROW(vc.observe(MsgId{0, make_seq(1, 5)}), InvariantViolation);
  EXPECT_THROW(vc.observe(MsgId{0, make_seq(2, 1)}), InvariantViolation);
}

TEST(VectorClockTest, MultiIncarnationCodecRoundTrip) {
  VectorClock vc(3);
  vc.observe(MsgId{0, make_seq(1, 9)});
  vc.observe(MsgId{0, make_seq(3, 2)});
  vc.observe(MsgId{2, make_seq(2, 1)});
  BufWriter w;
  vc.encode(w);
  BufReader r(w.data());
  const VectorClock back = VectorClock::decode(r);
  EXPECT_EQ(back, vc);
  EXPECT_TRUE(back.covers(MsgId{0, make_seq(1, 9)}));
  EXPECT_FALSE(back.covers(MsgId{0, make_seq(2, 1)}));
  EXPECT_TRUE(back.covers(MsgId{0, make_seq(3, 2)}));
}

TEST(VectorClockTest, CodecRoundTrip) {
  const VectorClock vc = make({0, 7, 123456789, 1});
  BufWriter w;
  vc.encode(w);
  BufReader r(w.data());
  const VectorClock back = VectorClock::decode(r);
  EXPECT_EQ(back, vc);
  EXPECT_EQ(back.size(), 4u);
  EXPECT_EQ(back.last_of(2), 123456789u);

  // Empty clock round-trips too.
  BufWriter w2;
  VectorClock(0).encode(w2);
  BufReader r2(w2.data());
  EXPECT_EQ(VectorClock::decode(r2), VectorClock(0));
}

}  // namespace
}  // namespace abcast::core
