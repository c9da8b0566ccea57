// E2 — Batching and throughput (paper §5.4).
//
// Claims: (a) batching many messages into one Consensus instance raises
// throughput (fewer instances per message); (b) the early-return
// A-broadcast (durable Unordered log) lets clients run open-loop instead of
// closed-loop, which is where the batching headroom actually comes from.

#include "bench_util.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

ClusterConfig make_config(bool durable_unordered, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = seed;
  cfg.stack.ab.log_unordered = durable_unordered;
  return cfg;
}

void run_tables() {
  banner("E2: throughput vs batch size",
         "Claim: throughput grows with batch size (one Consensus instance "
         "orders a whole batch); early-return batching >> closed-loop at "
         "high offered load.");

  const int kTotal = bench_quick() ? 120 : 400;
  const int kClosed = bench_quick() ? 30 : 100;
  {
    Table t({"client mode", "batch", "elapsed ms", "msgs/s", "rounds",
             "msgs/round", "p50 ms", "p99 ms"});
    // Closed loop: the basic A-broadcast blocks until delivery.
    {
      Cluster c(make_config(false, 201));
      c.start_all();
      const auto r = run_closed_loop(c, kClosed);  // slow: fewer msgs
      t.row({"closed-loop (basic)", "1",
             Table::num(static_cast<double>(r.elapsed) / 1e6),
             Table::num(r.throughput_per_sec(), 0), fmt_u64(r.rounds),
             Table::num(static_cast<double>(kClosed) /
                        static_cast<double>(r.rounds), 1),
             Table::num(r.latency.p50_ms), Table::num(r.latency.p99_ms)});
    }
    // Open loop with durable Unordered (§5.4 early return): batch sweep.
    const std::vector<int> batches =
        bench_quick() ? std::vector<int>{1, 4, 16, 64}
                      : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
    for (const int batch : batches) {
      Cluster c(make_config(true, 202));
      c.start_all();
      const auto r = run_open_loop(c, kTotal, batch, millis(5));
      t.row({"open-loop (5.4)", std::to_string(batch),
             Table::num(static_cast<double>(r.elapsed) / 1e6),
             Table::num(r.throughput_per_sec(), 0), fmt_u64(r.rounds),
             Table::num(static_cast<double>(kTotal) /
                        static_cast<double>(r.rounds), 1),
             Table::num(r.latency.p50_ms), Table::num(r.latency.p99_ms)});
      Json row;
      row.field("experiment", "throughput_batch_sweep")
          .field("batch", batch)
          .field("elapsed_ms", static_cast<double>(r.elapsed) / 1e6)
          .field("throughput_per_sec", r.throughput_per_sec())
          .field("rounds", r.rounds)
          .field("p50_ms", r.latency.p50_ms, 3)
          .field("p99_ms", r.latency.p99_ms, 3);
      with_metrics(row, c);
      emit_json_row(row);
    }
    t.print(std::cout);
  }

  banner("E2b: offered load sweep (batch = 16)",
         "Higher offered load amortizes rounds until the round pipeline "
         "saturates.");
  {
    Table t({"gap ms", "msgs/s offered", "msgs/s achieved", "rounds",
             "p99 ms"});
    const std::vector<Duration> gaps =
        bench_quick()
            ? std::vector<Duration>{millis(20), millis(5)}
            : std::vector<Duration>{millis(50), millis(20), millis(10),
                                    millis(5), millis(2), millis(1)};
    for (const Duration gap : gaps) {
      Cluster c(make_config(true, 203));
      c.start_all();
      const auto r = run_open_loop(c, kTotal, 16, gap);
      const double offered = 16.0 / (static_cast<double>(gap) / 1e9);
      t.row({Table::num(static_cast<double>(gap) / 1e6, 0),
             Table::num(offered, 0), Table::num(r.throughput_per_sec(), 0),
             fmt_u64(r.rounds), Table::num(r.latency.p99_ms)});
    }
    t.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  run_tables();
  return 0;
}
