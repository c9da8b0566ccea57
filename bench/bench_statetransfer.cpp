// E5 — State transfer vs instance-by-instance catch-up (paper §5.3).
//
// Claim: a process that missed D rounds needs O(D) work (and messages) to
// catch up by running the missed Consensus instances; adopting a state
// message is O(1) in rounds — the gap widens linearly with downtime.
//
// The first rows run on the simulator's default 1–10 ms links, where a
// round trip bounds each window of decisions a laggard pulls. The last run
// on 50–200 µs links (LAN-like, as the real-stack benchmark's loopback),
// where applying the decisions and pacing the pulls set the pace instead.

#include "bench_util.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct CatchUp {
  std::uint64_t missed_rounds = 0;
  double catch_up_ms = 0;
  std::uint64_t transfers = 0;       // state messages adopted
  std::uint64_t messages = 0;        // network messages during catch-up
  std::uint64_t state_bytes = 0;     // bytes in state messages
};

CatchUp run_once(int down_rounds, bool state_transfer, bool fast_links) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 500 + static_cast<std::uint64_t>(down_rounds);
  if (fast_links) {
    cfg.sim.net.delay_min = micros(50);
    cfg.sim.net.delay_max = micros(200);
  }
  cfg.stack.ab.checkpointing = true;
  cfg.stack.ab.state_transfer = state_transfer;
  cfg.stack.ab.delta = 3;
  Cluster c(cfg);
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  c.await_delivery(warm);

  c.sim().crash(2);
  std::vector<MsgId> ids;
  for (int i = 0; i < down_rounds; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(fast_links ? millis(2) : millis(60));
  }
  c.await_delivery(ids, {0, 1}, seconds(600));
  const auto target = c.stack(0)->ab().round();

  const auto msgs_before = c.sim().net_stats().sent;
  const auto state_bytes_before =
      c.sim().net_stats().bytes_by_type.count(MsgType::kAbStateChunk)
          ? c.sim().net_stats().bytes_by_type.at(MsgType::kAbStateChunk)
          : 0;
  const TimePoint start = c.sim().now();
  c.sim().recover(2);
  c.sim().run_until_pred(
      [&] { return c.stack(2)->ab().round() >= target; },
      c.sim().now() + seconds(600));

  CatchUp out;
  out.missed_rounds = target - c.stack(2)->ab().metrics().replayed_rounds;
  out.catch_up_ms = static_cast<double>(c.sim().now() - start) / 1e6;
  out.transfers = c.stack(2)->ab().metrics().state_applied;
  out.messages = c.sim().net_stats().sent - msgs_before;
  const auto state_bytes_after =
      c.sim().net_stats().bytes_by_type.count(MsgType::kAbStateChunk)
          ? c.sim().net_stats().bytes_by_type.at(MsgType::kAbStateChunk)
          : 0;
  out.state_bytes = state_bytes_after - state_bytes_before;
  return out;
}

void run_tables() {
  banner("E5: catch-up after missing D rounds",
         "Claim: per-instance catch-up costs O(D) time and messages; a "
         "state transfer is ~constant — crossover at small D.");
  Table t({"D rounds", "links", "variant", "catch-up ms", "transfers",
           "net msgs", "state KB"});
  const auto rows = [&t](int d, bool fast_links) {
    const char* links = fast_links ? "50-200 us" : "1-10 ms";
    const auto replay = run_once(d, false, fast_links);
    t.row({std::to_string(d), links, "per-instance",
           Table::num(replay.catch_up_ms), fmt_u64(replay.transfers),
           fmt_u64(replay.messages),
           Table::num(static_cast<double>(replay.state_bytes) / 1e3, 1)});
    const auto transfer = run_once(d, true, fast_links);
    t.row({std::to_string(d), links, "state transfer (5.3)",
           Table::num(transfer.catch_up_ms), fmt_u64(transfer.transfers),
           fmt_u64(transfer.messages),
           Table::num(static_cast<double>(transfer.state_bytes) / 1e3, 1)});
  };
  for (const int d : {5, 10, 20, 50, 100}) rows(d, false);
  for (const int d : {1000, 2000}) rows(d, true);
  t.print(std::cout);
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
