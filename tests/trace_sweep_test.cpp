// Acceptance sweeps for the observability subsystem: 100 randomized
// crash/recovery scenarios (both consensus engines, both protocol
// variants) plus 100 randomized §5.3 chunked-state-transfer scenarios
// (checkpoint + truncation churn, crashes on either side of the stream)
// and 32 heavy bursts whose datagrams reach the network's limit, each
// recorded by per-host TraceRecorders, and every merged trace must
// satisfy the paper's properties under the offline checker — while mutated
// traces (a dropped deliver, a swapped order) must be flagged.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "harness/fixture.hpp"
#include "sim/fault_plan.hpp"
#include "obs/trace_check.hpp"

using namespace abcast;
using namespace abcast::core;
using namespace abcast::harness;

namespace {

constexpr std::uint32_t kN = 3;
constexpr CrashPhase kPhases[] = {CrashPhase::kBeforeOp,
                                  CrashPhase::kTornWrite, CrashPhase::kAfterOp};

/// One randomized scenario with tracing on: storage crash-points on rotating
/// victims, recovery, quiescence, then the offline checker over the merged
/// trace. Returns the merged trace so the caller can mutate it.
std::vector<obs::TraceEvent> run_seed(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = seed;
  cfg.sim.trace_capacity = 1 << 16;  // large enough that nothing drops
  cfg.stack.engine = (seed % 2) ? ConsensusKind::kCoord : ConsensusKind::kPaxos;
  const bool alternative = (seed / 2) % 2;
  if (alternative) {
    cfg.stack.ab = Options::alternative();
    cfg.stack.ab.checkpoint_period = millis(50);
  }
  // Sweep both gossip modes: odd (seed/4) runs digest-based delta gossip
  // (which suppresses idle ticks; eager pushes on half of those runs)
  // instead of the full-set datagram.
  if ((seed / 4) % 2) {
    cfg.stack.ab.digest_gossip = true;
    cfg.stack.ab.eager_dissemination = (seed / 8) % 2;
  }
  Cluster c(cfg);
  c.start_all();
  Rng rng(seed * 7919 + 17);

  std::vector<MsgId> must_deliver;
  must_deliver.push_back(c.broadcast(0, Bytes(16, 'w')));
  EXPECT_TRUE(c.await_delivery(must_deliver, {}, seconds(60)))
      << "seed " << seed;

  for (std::size_t i = 0; i < 3; ++i) {
    const ProcessId victim = static_cast<ProcessId>((seed + i) % kN);
    c.sim().storage_faults(victim).arm_crash_in(
        1 + static_cast<std::uint64_t>(rng.uniform(0, 5)), kPhases[i]);
    const ProcessId survivor = static_cast<ProcessId>((victim + 1) % kN);
    for (int b = 0; b < 4 && c.sim().host(victim).is_up(); ++b) {
      c.broadcast_may_crash(victim, Bytes(16, static_cast<std::uint8_t>(b)));
      must_deliver.push_back(c.broadcast(survivor, Bytes(16, 's')));
      c.sim().run_for(millis(25));
    }
    c.sim().run_until_pred([&] { return !c.sim().host(victim).is_up(); },
                           c.sim().now() + millis(400));
    if (c.sim().host(victim).is_up()) {
      c.sim().storage_faults(victim).disarm_crash_point();
      c.sim().crash(victim);
    }
    for (int tries = 0; !c.sim().host(victim).is_up(); ++tries) {
      if (tries >= 10) {
        ADD_FAILURE() << "seed " << seed << ": recovery keeps dying";
        return {};
      }
      c.sim().recover(victim);
    }
    c.sim().run_for(millis(60));
  }

  EXPECT_TRUE(c.await_delivery(must_deliver, {}, seconds(120)))
      << "seed " << seed;
  // The checker's strict mode needs a fully quiesced end state (equal
  // delivery prefixes, empty Unordered everywhere).
  EXPECT_TRUE(c.await_quiesced(seconds(120))) << "seed " << seed;
  EXPECT_EQ(c.trace_dropped(), 0u) << "seed " << seed;
  EXPECT_EQ(c.sim().net_stats().dropped_oversize, 0u) << "seed " << seed;

  obs::CheckOptions options;
  options.require_quiesced = true;
  options.basic_protocol = !alternative;
  auto trace = c.collect_trace();
  const auto report = obs::check_trace(trace, options);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                           << (report.ok()
                                   ? std::string()
                                   : obs::to_string(report.violations[0]));
  EXPECT_GT(report.stats.delivers, 0u);
  EXPECT_GT(report.stats.log_writes, 0u) << "TracingStorage not wired?";
  return trace;
}

void run_range(std::uint64_t first_seed, std::uint64_t count) {
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    run_seed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// One randomized §5.3 corridor scenario: the full alternative stack
/// (checkpoints, app checkpoints, truncation, chunked state transfer) with
/// a deliberately small chunk budget, a process that rejoins from behind
/// the truncation horizon, and seed-dependent churn that crashes the
/// transfer's receiver or one of its senders mid-stream. The merged trace
/// must satisfy the paper's properties AND the per-datagram chunk bound
/// under the strict checker.
void run_state_seed(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = seed * 31 + 1000;
  cfg.sim.trace_capacity = 1 << 16;  // large enough that nothing drops
  cfg.stack.engine = (seed % 2) ? ConsensusKind::kCoord : ConsensusKind::kPaxos;
  cfg.stack.ab = Options::alternative();
  cfg.stack.ab.checkpoint_period = millis(40);
  cfg.stack.ab.delta = 2;
  cfg.sim.net.max_datagram_bytes = 512;  // several chunks even for tiny state
  cfg.stack.ab.digest_gossip = (seed / 4) % 2;
  // Without application checkpoints the rejoiner's whole history streams
  // as tail chunks, so the corridor's 512 B limit actually binds; with them
  // the history folds into a small snapshot.
  const bool tail_only = (seed / 8) % 2;
  if (tail_only) cfg.stack.ab.app_checkpointing = false;
  Cluster c(cfg);
  c.start_all();
  Rng rng(seed * 104729 + 7);

  std::vector<MsgId> ids;
  ids.push_back(c.broadcast(0, Bytes(16, 'w')));
  EXPECT_TRUE(c.await_delivery(ids, {}, seconds(60))) << "seed " << seed;

  const ProcessId victim = static_cast<ProcessId>(seed % kN);
  std::vector<ProcessId> survivors;
  for (ProcessId p = 0; p < kN; ++p) {
    if (p != victim) survivors.push_back(p);
  }
  c.sim().crash(victim);
  for (int b = 0; b < 10; ++b) {
    const ProcessId sender = survivors[static_cast<std::size_t>(b) % 2];
    ids.push_back(c.broadcast(sender, Bytes(40 + 23 * static_cast<std::size_t>(b),
                                            static_cast<std::uint8_t>(b))));
    // Await each broadcast so every one closes at least one round: the
    // victim must fall behind by well over Δ rounds, not just Δ messages.
    EXPECT_TRUE(c.await_delivery({ids.back()}, survivors, seconds(60)))
        << "seed " << seed;
  }
  c.sim().run_for(millis(200));  // checkpoints fold + truncate the prefix

  c.sim().recover(victim);
  c.sim().run_for(millis(1 + static_cast<std::int64_t>(rng.uniform(0, 40))));
  if (seed % 3 == 0) {
    // The catch-up receiver dies mid-stream and rejoins: the session must
    // resume from its re-advertised (possibly regressed) total.
    if (c.sim().host(victim).is_up()) c.sim().crash(victim);
    c.sim().run_for(millis(60));
    c.sim().recover(victim);
  } else if (seed % 3 == 1) {
    // One of the catch-up senders dies mid-stream: the other peer's
    // session must finish the rescue.
    const ProcessId sender = static_cast<ProcessId>((victim + 1) % kN);
    c.sim().crash(sender);
    c.sim().run_for(millis(60));
    c.sim().recover(sender);
  }

  EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120))) << "seed " << seed;
  EXPECT_TRUE(c.await_quiesced(seconds(120))) << "seed " << seed;
  EXPECT_EQ(c.trace_dropped(), 0u) << "seed " << seed;
  EXPECT_EQ(c.sim().net_stats().dropped_oversize, 0u) << "seed " << seed;

  obs::CheckOptions options;
  options.require_quiesced = true;
  options.max_state_chunk_bytes = cfg.sim.net.max_datagram_bytes;
  const auto trace = c.collect_trace();
  const auto report = obs::check_trace(trace, options);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                           << (report.ok()
                                   ? std::string()
                                   : obs::to_string(report.violations[0]));
  // The corridor must actually have been exercised.
  const bool chunked = std::any_of(
      trace.begin(), trace.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::EventKind::kStateTransfer &&
               (e.detail == "send_chunk" || e.detail == "send_snap");
      });
  EXPECT_TRUE(chunked) << "seed " << seed << ": no state chunk ever sent";
  if (tail_only) {
    // The tail filled several datagrams, one of them near the limit.
    std::size_t tail_chunks = 0;
    std::uint64_t largest = 0;
    for (const auto& e : trace) {
      if (e.kind != obs::EventKind::kStateTransfer ||
          e.detail != "send_chunk") {
        continue;
      }
      tail_chunks += 1;
      largest = std::max(largest, e.arg);
    }
    EXPECT_GE(tail_chunks, 3u) << "seed " << seed;
    EXPECT_GE(largest, 384u) << "seed " << seed;
  }
}

void run_state_range(std::uint64_t first_seed, std::uint64_t count) {
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    run_state_seed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// One heavy burst on a 1 KiB lossy network: 1–3 senders broadcast at once
/// at least five datagrams' worth of messages, so proposals, full-set
/// gossip and digest deltas all overflow and must carry what fits. Every
/// message is delivered, nothing is dropped as oversize, the strict checker
/// passes, and some AB datagram comes within one message of the limit: a
/// budget that overshot the limit would be caught here.
void run_burst_seed(std::uint64_t seed) {
  constexpr std::size_t kLimit = 1024;
  constexpr std::size_t kMaxPayload = 200;
  ClusterConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = seed * 53 + 5000;
  cfg.sim.trace_capacity = 1 << 16;  // large enough that nothing drops
  cfg.sim.net.max_datagram_bytes = kLimit;
  cfg.sim.net.drop_prob = 0.05;
  cfg.stack.engine = (seed % 2) ? ConsensusKind::kCoord : ConsensusKind::kPaxos;
  const bool alternative = (seed / 2) % 2;
  if (alternative) cfg.stack.ab = Options::alternative();
  cfg.stack.ab.digest_gossip = (seed / 4) % 2;
  cfg.stack.ab.eager_dissemination = (seed / 8) % 2;
  Cluster c(cfg);
  c.start_all();
  Rng rng(seed * 6151 + 3);

  const auto senders = static_cast<std::uint32_t>(1 + rng.uniform(0, 2));
  std::vector<MsgId> ids;
  std::size_t burst_bytes = 0;
  while (burst_bytes < 5 * kLimit) {
    const auto from = static_cast<ProcessId>(ids.size() % senders);
    const auto size = static_cast<std::size_t>(rng.uniform(24, kMaxPayload));
    const auto fill = static_cast<std::uint8_t>(ids.size());
    ids.push_back(c.broadcast(from, Bytes(size, fill)));
    burst_bytes += 16 + size;  // the entry: id, length, payload
  }

  EXPECT_TRUE(c.await_delivery(ids, {}, seconds(120))) << "seed " << seed;
  EXPECT_TRUE(c.await_quiesced(seconds(120))) << "seed " << seed;
  c.oracle().check();
  EXPECT_EQ(c.trace_dropped(), 0u) << "seed " << seed;
  const auto& net = c.sim().net_stats();
  EXPECT_EQ(net.dropped_oversize, 0u) << "seed " << seed;
  std::size_t largest = 0;
  for (const MsgType t : {MsgType::kAbGossip, MsgType::kAbGossipDigest,
                          MsgType::kAbStateChunk}) {
    const auto it = net.max_payload_by_type.find(t);
    if (it != net.max_payload_by_type.end()) {
      largest = std::max(largest, it->second);
    }
  }
  EXPECT_LE(largest, kLimit) << "seed " << seed;
  EXPECT_GT(largest + 16 + kMaxPayload, kLimit)
      << "seed " << seed << ": no AB datagram came near the limit";

  obs::CheckOptions options;
  options.require_quiesced = true;
  options.basic_protocol = !alternative;
  options.max_state_chunk_bytes = kLimit;
  const auto report = obs::check_trace(c.collect_trace(), options);
  EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                           << (report.ok()
                                   ? std::string()
                                   : obs::to_string(report.violations[0]));
}

}  // namespace

// 4 shards x 25 seeds = 100 randomized crash/recovery scenarios, every
// merged trace audited by the offline checker.
TEST(TraceSweep, Seeds0To24) { run_range(0, 25); }
TEST(TraceSweep, Seeds25To49) { run_range(25, 25); }
TEST(TraceSweep, Seeds50To74) { run_range(50, 25); }
TEST(TraceSweep, Seeds75To99) { run_range(75, 25); }

// 4 shards x 25 seeds = 100 randomized §5.3 corridor scenarios: chunked
// state transfer under checkpoint/truncation churn with crashes on either
// side of the stream, audited strictly (including the per-datagram chunk
// bound) by the offline checker.
TEST(TraceSweepState, Seeds0To24) { run_state_range(0, 25); }
TEST(TraceSweepState, Seeds25To49) { run_state_range(25, 25); }
TEST(TraceSweepState, Seeds50To74) { run_state_range(50, 25); }
TEST(TraceSweepState, Seeds75To99) { run_state_range(75, 25); }

// 32 heavy bursts over {Paxos, Coord} x {basic, alternative} x {full-set,
// digest} gossip (eager on half), on a 1 KiB network with loss.
TEST(TraceSweepBurst, Seeds0To31) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    run_burst_seed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Mutating a real trace must flip the verdict: the checker is only trusted
// because it rejects corrupted histories.
TEST(TraceSweep, MutatedTracesAreRejected) {
  const auto trace = run_seed(5);  // coord engine, basic variant, digest mode
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  obs::CheckOptions options;
  options.require_quiesced = true;

  ASSERT_TRUE(obs::check_trace(trace, options).ok());

  {  // Drop a mid-run deliver: the next position jumps without a recovery
     // or adoption to justify it, so continuity must trip.
    auto mutated = trace;
    std::vector<std::size_t> run;  // node-0 delivers since the last reset
    std::size_t drop = mutated.size();
    for (std::size_t j = 0; j < mutated.size() && drop == mutated.size();
         ++j) {
      const auto& e = mutated[j];
      if (e.node != 0) continue;
      switch (e.kind) {
        case obs::EventKind::kCrash:
        case obs::EventKind::kRecoverBegin:
        case obs::EventKind::kStateTransfer:
          run.clear();
          break;
        case obs::EventKind::kDeliver: {
          run.push_back(j);
          if (run.size() < 3) break;
          const auto& a = mutated[run[run.size() - 3]];
          const auto& b = mutated[run[run.size() - 2]];
          const auto& d = mutated[run[run.size() - 1]];
          if (a.arg + 1 == b.arg && b.arg + 1 == d.arg) {
            drop = run[run.size() - 2];
          }
          break;
        }
        default:
          break;
      }
    }
    ASSERT_LT(drop, mutated.size()) << "no droppable deliver found";
    mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(obs::check_trace(mutated, options).ok());
  }
  {  // Swap two adjacent delivered messages on one node: order diverges.
    auto mutated = trace;
    obs::TraceEvent* prev = nullptr;
    for (auto& e : mutated) {
      if (e.kind != obs::EventKind::kDeliver || e.node != 0) continue;
      if (prev != nullptr && prev->msg != e.msg) {
        std::swap(prev->msg, e.msg);
        prev = nullptr;
        break;
      }
      prev = &e;
    }
    ASSERT_EQ(prev, nullptr) << "no adjacent deliver pair to swap";
    EXPECT_FALSE(obs::check_trace(mutated, options).ok());
  }
}
