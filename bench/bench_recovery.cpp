// E3 — Recovery cost: replay vs checkpointing (paper §5.1).
//
// Claim: without checkpoints, recovery replays every decided Consensus
// instance — cost linear in history length. Logging (k, Agreed)
// periodically caps the replay at one checkpoint period.

#include <chrono>

#include "bench_util.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct RecoveryOutcome {
  std::uint64_t history_rounds = 0;
  std::uint64_t replayed = 0;
  // Replay happens synchronously inside recover() (reading the local logs
  // costs no virtual time), so recovery cost is measured in wall-clock time
  // and storage reads.
  double recovery_wall_us = 0;
  std::uint64_t storage_reads = 0;
};

/// Builds `rounds` rounds of history, crashes p2, recovers it immediately,
/// and measures how long it takes to re-reach the current round.
RecoveryOutcome run_once(int rounds, bool checkpointing,
                         Duration checkpoint_period) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 300 + static_cast<std::uint64_t>(rounds);
  cfg.stack.ab.checkpointing = checkpointing;
  cfg.stack.ab.checkpoint_period = checkpoint_period;
  Cluster c(cfg);
  c.start_all();

  // One message per round, paced beyond the round latency so every message
  // lands in its own round.
  std::vector<MsgId> ids;
  for (int i = 0; i < rounds; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(millis(60));
  }
  c.await_delivery(ids, {}, seconds(600));
  if (checkpointing) {
    // Keep the workload running and crash ~90% of the way through a
    // checkpoint interval, so the rounds decided since the last checkpoint
    // (≈ 0.9 × period / round-time) have to be replayed — the quantity the
    // period sweep is about.
    const TimePoint next_tick =
        ((c.sim().now() / checkpoint_period) + 1) * checkpoint_period;
    const TimePoint crash_at = next_tick + checkpoint_period * 9 / 10;
    std::vector<MsgId> tail;
    while (c.sim().now() < crash_at - millis(60)) {
      tail.push_back(c.broadcast(0));
      c.sim().run_for(millis(60));
    }
    c.await_delivery(tail, {}, seconds(600));
  } else {
    c.sim().run_for(millis(10));
  }

  const auto target = c.stack(0)->ab().round();
  c.sim().crash(2);
  const auto reads_before = c.sim().host(2).storage().stats().get_ops;
  const auto wall_start = std::chrono::steady_clock::now();
  c.sim().recover(2);
  const auto wall_end = std::chrono::steady_clock::now();
  c.sim().run_until_pred(
      [&] { return c.stack(2)->ab().round() >= target; },
      c.sim().now() + seconds(600));

  RecoveryOutcome out;
  out.history_rounds = target;
  out.replayed = c.stack(2)->ab().metrics().replayed_rounds;
  out.recovery_wall_us =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              wall_end - wall_start)
                              .count()) /
      1e3;
  out.storage_reads = c.sim().host(2).storage().stats().get_ops - reads_before;
  return out;
}

void run_tables() {
  banner("E3: recovery cost vs history length",
         "Claim: replay cost grows linearly with decided rounds; periodic "
         "(k, Agreed) checkpoints flatten it to O(checkpoint period).");
  Table t({"history rounds", "variant", "replayed rounds", "storage reads",
           "recovery wall us"});
  for (const int rounds : {10, 50, 100, 200}) {
    const auto replay = run_once(rounds, false, millis(500));
    t.row({std::to_string(rounds), "replay (basic)",
           fmt_u64(replay.replayed), fmt_u64(replay.storage_reads),
           Table::num(replay.recovery_wall_us, 0)});
    const auto ckpt = run_once(rounds, true, millis(500));
    t.row({std::to_string(rounds), "ckpt 500ms", fmt_u64(ckpt.replayed),
           fmt_u64(ckpt.storage_reads),
           Table::num(ckpt.recovery_wall_us, 0)});
  }
  t.print(std::cout);

  banner("E3b: checkpoint period sweep (history = 100 rounds)",
         "Shorter periods mean fewer rounds to replay, at the price of more "
         "checkpoint log writes (see E1).");
  Table t2({"ckpt period ms", "replayed rounds", "storage reads",
            "recovery wall us"});
  for (const Duration period : {millis(100), millis(250), millis(500),
                                millis(1000), millis(2000)}) {
    const auto out = run_once(100, true, period);
    t2.row({Table::num(static_cast<double>(period) / 1e6, 0),
            fmt_u64(out.replayed), fmt_u64(out.storage_reads),
            Table::num(out.recovery_wall_us, 0)});
  }
  t2.print(std::cout);
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
