// Digest-based delta gossip (Options::digest_gossip): the per-sender chain
// invariant that makes delta shipping safe, end-to-end delivery under loss /
// duplication / crash-recovery, the bandwidth advantage over full-set
// gossip, and idle-tick suppression, which digest mode always does and
// full-set mode never does.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/gossip_wire.hpp"
#include "harness/fixture.hpp"
#include "obs/trace_check.hpp"

using namespace abcast;
using namespace abcast::core;
using namespace abcast::harness;

namespace {

constexpr std::uint32_t kN = 3;

ClusterConfig digest_config(std::uint64_t seed, bool eager) {
  ClusterConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = seed;
  cfg.sim.trace_capacity = 1 << 16;
  cfg.sim.net.drop_prob = 0.15;
  cfg.sim.net.dup_prob = 0.10;
  cfg.stack.ab.digest_gossip = true;
  cfg.stack.ab.eager_dissemination = eager;
  return cfg;
}

/// The property delta gossip must never break (see DESIGN.md "Digest
/// gossip"): at every process, the Unordered set holds no message (p, s)
/// with an in-incarnation predecessor (p, s-1) that is neither agreed nor
/// also held. A violation is exactly the state in which a proposal could
/// order (p, s) while the vector-clock supersession rule silently drops
/// (p, s-1) everywhere.
void expect_chains_contiguous(Cluster& c, std::uint64_t seed) {
  for (ProcessId p = 0; p < kN; ++p) {
    auto* stack = c.stack(p);
    if (stack == nullptr) continue;  // down
    const auto& ab = stack->ab();
    for (const auto& [id, m] : ab.unordered()) {
      if (seq_counter(id.seq) <= 1) continue;  // chain root: no predecessor
      const MsgId pred{id.sender, id.seq - 1};
      EXPECT_TRUE(ab.agreed().contains(pred) ||
                  ab.unordered().count(pred) == 1)
          << "seed " << seed << ": node " << p << " holds (" << id.sender
          << "," << id.seq << ") without its predecessor";
    }
  }
}

}  // namespace

// The struct encoder (DigestMsg::encode) and the copy-free encoder
// (make_digest_wire) are one function; pin the layout with a byte-equal
// round trip so they can never drift again, and pin the size helpers the
// chunker budgets with.
TEST(GossipDigest, WireLayoutRoundTripsThroughBothEncoders) {
  DigestMsg m;
  m.k = 7;
  m.total = 42;
  m.want_reply = true;
  m.cover = {make_seq(1, 3), 0, make_seq(2, 9)};
  AppMsg a;
  a.id = MsgId{0, make_seq(1, 4)};
  a.payload = Bytes{1, 2, 3};
  AppMsg b;
  b.id = MsgId{2, make_seq(2, 10)};
  m.msgs = {a, b};

  const Wire via_struct = make_wire(MsgType::kAbGossipDigest, m);
  const Wire via_refs =
      make_digest_wire(m.k, m.total, m.want_reply, m.cover, {&a, &b});
  EXPECT_EQ(via_struct.payload.get(), via_refs.payload.get());
  EXPECT_EQ(via_refs.payload.size(), digest_header_bytes(m.cover.size()) +
                                         delta_entry_bytes(a) +
                                         delta_entry_bytes(b));

  const auto back = decode_from_bytes<DigestMsg>(via_refs.payload);
  EXPECT_EQ(back.k, 7u);
  EXPECT_EQ(back.total, 42u);
  EXPECT_TRUE(back.want_reply);
  EXPECT_EQ(back.cover, m.cover);
  ASSERT_EQ(back.msgs.size(), 2u);
  EXPECT_EQ(back.msgs[0].id, a.id);
  EXPECT_EQ(back.msgs[0].payload, a.payload);
  EXPECT_EQ(back.msgs[1].id, b.id);

  const Wire empty = make_digest_wire(m.k, m.total, false, m.cover, {});
  EXPECT_EQ(empty.payload.size(), digest_header_bytes(m.cover.size()));
}

// A delta plan larger than the datagram limit must be split across several
// datagrams (each a self-contained in-order suffix), not sent as one
// oversized datagram the network drops. The ratio pin: no datagram may
// carry more messages than the budget admits.
TEST(GossipDigest, DeltaPlansAreChunkedToTheDatagramBudget) {
  ClusterConfig cfg = digest_config(905, /*eager=*/false);
  cfg.sim.net.drop_prob = 0;
  cfg.sim.net.dup_prob = 0;
  cfg.sim.net.max_datagram_bytes = 600;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  // One backlog burst from a single sender, bigger than several budgets:
  // 40 messages × (16 + 64) bytes ≈ 3.2 KiB of delta against a 600-byte cap.
  for (int i = 0; i < 40; ++i) {
    ids.push_back(c.broadcast(0, Bytes(64, 'x')));
  }
  EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  EXPECT_TRUE(c.await_quiesced(seconds(120)));

  // Budget math: header = digest_header_bytes(3), entry = 80 bytes, so at
  // most (600 - header) / 80 = 6 messages fit one datagram.
  const std::size_t per_datagram =
      (cfg.sim.net.max_datagram_bytes - digest_header_bytes(kN)) / (16 + 64);
  std::uint64_t datagrams = 0, msgs = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    const auto& met = c.stack(p)->ab().metrics();
    datagrams += met.delta_sent;
    msgs += met.delta_msgs_sent;
  }
  ASSERT_GT(datagrams, 0u);
  EXPECT_LE(msgs, datagrams * per_datagram);
  // And chunking actually engaged: the backlog needed multiple datagrams.
  EXPECT_GT(datagrams, 1u);
  EXPECT_EQ(c.sim().net_stats().dropped_oversize, 0u);
}

// The REVIEW regression end-to-end: node 0's broadcasts (inc,4),(inc,5)
// survive its crash in the durable Unordered log but never reach peers (its
// outbound links are cut); after recovery its delta replies are still lost,
// so peers' optimistic views of node 0 run ahead to (inc,5); then node 0
// broadcasts the next incarnation's root with links healed. Before the
// per-incarnation vector clock and the confirmed-cover jump rule, the eager
// root-only delta could be ordered first and numerically supersede
// (inc,4),(inc,5) everywhere — durably logged broadcasts silently lost.
// Now everything must deliver.
TEST(GossipDigest, PriorIncarnationSurvivesRootOrderedFirst) {
  ClusterConfig cfg = digest_config(906, /*eager=*/true);
  cfg.sim.net.drop_prob = 0;
  cfg.sim.net.dup_prob = 0;
  cfg.stack.ab.log_unordered = true;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;

  // Settle a common prefix from node 0.
  for (int i = 0; i < 3; ++i) ids.push_back(c.broadcast(0, Bytes(16, 'a')));
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(60)));

  // Cut node 0's outbound only, broadcast twice (durably logged, never
  // disseminated), crash.
  c.sim().block_link(0, 1);
  c.sim().block_link(0, 2);
  ids.push_back(c.broadcast(0, Bytes(16, 'b')));
  ids.push_back(c.broadcast(0, Bytes(16, 'b')));
  c.sim().run_for(millis(50));
  c.sim().crash(0);
  c.sim().run_for(millis(100));

  // Recover with outbound still cut: node 0 re-reads its logged suffix,
  // hears the peers' digests, and its delta replies vanish on the blocked
  // links — its views of the peers optimistically run ahead. Background
  // traffic from node 1 keeps rounds turning so the majority side's
  // proposals stay competitive.
  c.sim().recover(0);
  for (int i = 0; i < 6; ++i) {
    ids.push_back(c.broadcast(1, Bytes(16, 'x')));
    c.sim().run_for(millis(40));
  }

  // Heal and immediately broadcast the new incarnation's root, so the
  // eager path fires against the stale optimistic views; more background
  // traffic races the majority's root-bearing proposals against node 0's
  // full [prior-suffix + root] proposal.
  c.sim().unblock_link(0, 1);
  c.sim().unblock_link(0, 2);
  ids.push_back(c.broadcast(0, Bytes(16, 'c')));
  for (int i = 0; i < 6; ++i) {
    ids.push_back(c.broadcast(1, Bytes(16, 'y')));
    c.sim().run_for(millis(5));
  }

  EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  EXPECT_TRUE(c.await_quiesced(seconds(120)));
  expect_chains_contiguous(c, 906);

  obs::CheckOptions options;
  options.require_quiesced = true;
  const auto report = obs::check_trace(c.collect_trace(), options);
  EXPECT_TRUE(report.ok())
      << (report.ok() ? std::string() : obs::to_string(report.violations[0]));
}

// Property sweep: broadcasts from every node under heavy loss, duplication,
// and repeated crash/recovery, with the chain invariant asserted after every
// scheduler burst, ending in a quiesced, checker-clean state.
TEST(GossipDigest, ChainInvariantUnderLossDupAndCrashRecovery) {
  for (std::uint64_t seed = 900; seed < 906; ++seed) {
    ClusterConfig cfg = digest_config(seed, /*eager=*/true);
    // Durable Unordered (§5.4): without it the basic protocol may
    // legitimately lose a broadcast whose sender crashes before any eager
    // copy survives the lossy link, making "every id delivers" seed-lucky.
    cfg.stack.ab.log_unordered = true;
    Cluster c(cfg);
    c.start_all();
    Rng rng(seed * 31 + 7);

    std::vector<MsgId> ids;
    for (int step = 0; step < 30; ++step) {
      for (ProcessId p = 0; p < kN; ++p) {
        if (c.sim().host(p).is_up() && rng.chance(0.7)) {
          ids.push_back(c.broadcast(p, Bytes(24, 'd')));
        }
      }
      if (step % 7 == 3) {
        const ProcessId victim = static_cast<ProcessId>(rng.uniform(0, 2));
        if (c.sim().host(victim).is_up()) c.sim().crash(victim);
      }
      if (step % 7 == 5) {
        for (ProcessId p = 0; p < kN; ++p) {
          if (!c.sim().host(p).is_up()) c.sim().recover(p);
        }
      }
      c.sim().run_for(millis(20));
      expect_chains_contiguous(c, seed);
    }
    for (ProcessId p = 0; p < kN; ++p) {
      if (!c.sim().host(p).is_up()) c.sim().recover(p);
    }

    EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120))) << "seed " << seed;
    EXPECT_TRUE(c.await_quiesced(seconds(120))) << "seed " << seed;
    expect_chains_contiguous(c, seed);

    obs::CheckOptions options;
    options.require_quiesced = true;
    const auto report = obs::check_trace(c.collect_trace(), options);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": "
        << (report.ok() ? std::string()
                        : obs::to_string(report.violations[0]));
  }
}

// Pull-only mode (no eager pushes): digests alone must move every message —
// the want_reply / delta-reply exchange is the sole dissemination path.
TEST(GossipDigest, PullOnlyAntiEntropyDelivers) {
  Cluster c(digest_config(901, /*eager=*/false));
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 10; ++i) {
    for (ProcessId p = 0; p < kN; ++p) {
      ids.push_back(c.broadcast(p, Bytes(32, static_cast<std::uint8_t>(i))));
    }
    c.sim().run_for(millis(10));
  }
  EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  EXPECT_TRUE(c.await_quiesced(seconds(120)));
  const auto& net = c.sim().net_stats();
  EXPECT_GT(net.sent_of(MsgType::kAbGossipDigest), 0u);
  EXPECT_EQ(net.sent_of(MsgType::kAbGossip), 0u);
}

// The tentpole's reason to exist: with a standing backlog, digest gossip
// moves far fewer gossip bytes than full-set gossip for the same workload.
// Full-set gossip re-sends every message on each tick until it is ordered,
// so the backlog must outlast several ticks: one-way delays of 10-40 ms
// make a round (one ACCEPT/ACCEPTED trip, then the DECIDED push) longer
// than the 30 ms gossip period. On the default network a round is shorter
// than a tick, and full-set gossip sends each message to each peer less
// than twice even in a 12,000-message burst: there is no 2x to save.
TEST(GossipDigest, DigestModeShipsFewerGossipBytes) {
  auto run = [](bool digest) {
    ClusterConfig cfg;
    cfg.sim.n = kN;
    cfg.sim.seed = 902;
    cfg.sim.net.delay_min = millis(10);
    cfg.sim.net.delay_max = millis(40);
    cfg.stack.ab.digest_gossip = digest;
    Cluster c(cfg);
    c.start_all();
    std::vector<MsgId> ids;
    // A burst deep enough that many gossip ticks fire while the backlog
    // drains round by round.
    for (std::uint32_t i = 0; i < 120; ++i) {
      ids.push_back(c.broadcast(static_cast<ProcessId>(i % kN), Bytes(64)));
    }
    EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120)));
    EXPECT_TRUE(c.await_quiesced(seconds(120)));
    const auto& net = c.sim().net_stats();
    std::uint64_t bytes = 0;
    for (const auto type :
         {MsgType::kAbGossip, MsgType::kAbGossipDigest}) {
      auto it = net.bytes_by_type.find(type);
      if (it != net.bytes_by_type.end()) bytes += it->second;
    }
    return bytes;
  };
  const std::uint64_t full = run(false);
  const std::uint64_t digest = run(true);
  EXPECT_LT(digest * 2, full)
      << "digest gossip should at least halve gossip bytes here "
      << "(digest=" << digest << " full=" << full << ")";
}

// Once the cluster is quiet and even, digest mode suppresses ticks down to
// the keepalive floor instead of re-multisending every period.
TEST(GossipDigest, IdleTicksAreSuppressedToKeepaliveFloor) {
  ClusterConfig cfg = digest_config(903, /*eager=*/true);
  cfg.sim.net.drop_prob = 0;  // quiet link: views stay accurate
  cfg.sim.net.dup_prob = 0;
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (ProcessId p = 0; p < kN; ++p) ids.push_back(c.broadcast(p));
  ASSERT_TRUE(c.await_delivery(ids, {}, seconds(60)));
  ASSERT_TRUE(c.await_quiesced(seconds(60)));
  // Let the views settle (everyone hears everyone's post-quiesce digest).
  c.sim().run_for(millis(200));

  const std::uint64_t before = c.sim().net_stats().sent_of(
      MsgType::kAbGossipDigest);
  const int periods = 64;
  c.sim().run_for(millis(30 * periods));
  const std::uint64_t during = c.sim().net_stats().sent_of(
      MsgType::kAbGossipDigest) - before;

  // Unsuppressed, kN processes × periods ticks × kN recipients would send
  // kN*kN*periods datagrams. The keepalive floor (every 8th period) plus
  // settle noise must stay well under half of that.
  EXPECT_LT(during, static_cast<std::uint64_t>(kN * kN * periods / 2));
  std::uint64_t suppressed = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    suppressed += c.stack(p)->ab().metrics().gossip_suppressed;
  }
  EXPECT_GT(suppressed, 0u);
}

// Where the suppression stops: full-set gossip is Fig. 2's "repeat forever
// multisend gossip", so even a fully idle basic cluster sends on every tick
// (the first at start, then one per period).
TEST(GossipDigest, FullSetGossipSendsOnEveryIdleTick) {
  ClusterConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = 907;
  cfg.stack.ab = Options::basic();
  Cluster c(cfg);
  c.start_all();
  const Duration period = cfg.stack.ab.gossip_period;
  c.sim().run_for(30 * period);
  const auto ticks = static_cast<std::uint64_t>(c.sim().now() / period) + 1;
  for (ProcessId p = 0; p < kN; ++p) {
    const auto& m = c.stack(p)->ab().metrics();
    const std::uint64_t sent = m.gossip_sent;
    EXPECT_LE(sent, ticks + 1) << "node " << p;
    EXPECT_GE(sent + 1, ticks) << "node " << p;
    EXPECT_EQ(m.gossip_suppressed.load(), 0u) << "node " << p;
  }
}

// The per-peer rate limiter: a duplicated digest must not double the delta
// bytes a peer sends back (delta replies to one peer are spaced by a fixed
// interval).
TEST(GossipDigest, DeltaRepliesAreRateLimitedPerPeer) {
  ClusterConfig cfg = digest_config(904, /*eager=*/false);
  cfg.sim.net.drop_prob = 0;
  cfg.sim.net.dup_prob = 0.9;  // nearly every digest arrives twice
  Cluster c(cfg);
  c.start_all();
  std::vector<MsgId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(c.broadcast(0, Bytes(48)));
  }
  EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120)));
  EXPECT_TRUE(c.await_quiesced(seconds(120)));
  std::uint64_t digests = 0, deltas = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    const auto& m = c.stack(p)->ab().metrics();
    digests += m.gossip_received;
    deltas += m.delta_sent;
  }
  // Without the limiter every received digest with a gap would earn a
  // reply; with ~2x duplication the reply count must stay well below the
  // received-digest count.
  EXPECT_LT(deltas, digests);
}
