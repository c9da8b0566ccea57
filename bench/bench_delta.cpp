// E6 — Tuning the state-transfer trigger Δ (paper §5.3, Fig. 3 line d).
//
// Claim: Δ trades spurious transfers against slow catch-up. A tiny Δ ships
// (potentially large) state messages for gaps normal catch-up would close
// anyway; a huge Δ degenerates into per-instance catch-up.

#include "bench_util.hpp"
#include "sim/fault_plan.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct DeltaOutcome {
  std::uint64_t transfers_sent = 0;
  std::uint64_t transfers_applied = 0;
  double mean_catch_up_ms = 0;
  std::uint64_t net_bytes = 0;
};

DeltaOutcome run_once(std::uint64_t delta) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 600;
  cfg.stack.ab.checkpointing = true;
  cfg.stack.ab.state_transfer = true;
  cfg.stack.ab.delta = delta;
  Cluster c(cfg);
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  c.await_delivery(warm);

  // p2 repeatedly goes down for a random 0.2–2s stretch while rounds keep
  // closing every ~60ms; measure how fast it re-synchronizes each time.
  double total_catch_up_ms = 0;
  int episodes = 0;
  std::vector<MsgId> ids;
  Rng rng(99);
  for (int episode = 0; episode < 8; ++episode) {
    c.sim().crash(2);
    // 0.2–6s down at ~16 rounds/s: gaps of ~3 to ~100 rounds, bracketing
    // every Δ in the sweep.
    const Duration downtime = rng.uniform(millis(200), millis(6000));
    const TimePoint down_until = c.sim().now() + downtime;
    while (c.sim().now() < down_until) {
      ids.push_back(c.broadcast(0));
      c.sim().run_for(millis(60));
    }
    const auto target = c.stack(0)->ab().round();
    const TimePoint start = c.sim().now();
    c.sim().recover(2);
    c.sim().run_until_pred(
        [&] { return c.stack(2)->ab().round() >= target; },
        c.sim().now() + seconds(600));
    total_catch_up_ms += static_cast<double>(c.sim().now() - start) / 1e6;
    episodes += 1;
  }
  c.await_delivery(ids, {}, seconds(600));

  DeltaOutcome out;
  for (ProcessId p = 0; p < 3; ++p) {
    out.transfers_sent += c.stack(p)->ab().metrics().state_sent;
    out.transfers_applied += c.stack(p)->ab().metrics().state_applied;
  }
  out.mean_catch_up_ms = total_catch_up_ms / episodes;
  out.net_bytes = c.sim().net_stats().bytes_sent;
  return out;
}

void run_tables() {
  banner("E6: Δ sweep under repeated outages",
         "Claim: small Δ = many transfers + fast catch-up; large Δ = few "
         "transfers + catch-up cost approaching per-instance replay.");
  Table t({"delta", "transfers sent", "transfers applied",
           "mean catch-up ms", "net MB"});
  for (const std::uint64_t delta : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const auto out = run_once(delta);
    t.row({std::to_string(delta), fmt_u64(out.transfers_sent),
           fmt_u64(out.transfers_applied),
           Table::num(out.mean_catch_up_ms),
           Table::num(static_cast<double>(out.net_bytes) / 1e6)});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
