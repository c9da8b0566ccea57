// E4 — Log size growth and application-level checkpoints (paper §5.2).
//
// Claim: without truncation the stable-storage footprint grows without
// bound (one proposal + decision + engine record per round); application
// checkpoints plus truncation keep it bounded (sawtooth).

#include "bench_util.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct FootprintSeries {
  std::vector<std::uint64_t> samples;  // bytes at p0 per sample interval
};

FootprintSeries run_once(bool bounded, int bursts) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 400;
  if (bounded) {
    cfg.stack.ab.checkpointing = true;
    cfg.stack.ab.app_checkpointing = true;
    cfg.stack.ab.truncate_logs = true;
    cfg.stack.ab.state_transfer = true;
    cfg.stack.ab.checkpoint_period = millis(300);
  }
  Cluster c(cfg);
  c.start_all();
  FootprintSeries series;
  std::vector<MsgId> ids;
  for (int burst = 0; burst < bursts; ++burst) {
    for (int i = 0; i < 5; ++i) ids.push_back(c.broadcast(0, Bytes(64, 'x')));
    c.sim().run_for(millis(100));
    if (burst % 10 == 9) {
      series.samples.push_back(c.sim().host(0).storage().footprint_bytes());
    }
  }
  c.await_delivery(ids, {}, seconds(600));
  series.samples.push_back(c.sim().host(0).storage().footprint_bytes());
  return series;
}

void run_tables() {
  banner("E4: stable-storage footprint over time",
         "Claim: unbounded linear growth without truncation; bounded "
         "sawtooth with app-level checkpoints + truncation (Fig.4 lines "
         "b-c).");
  const int kBursts = 100;  // 500 messages, ~100 rounds
  const auto unbounded = run_once(false, kBursts);
  const auto bounded = run_once(true, kBursts);

  Table t({"progress", "unbounded bytes", "bounded bytes", "ratio"});
  const std::size_t samples =
      std::min(unbounded.samples.size(), bounded.samples.size());
  for (std::size_t i = 0; i < samples; ++i) {
    const double ratio =
        bounded.samples[i] == 0
            ? 0
            : static_cast<double>(unbounded.samples[i]) /
                  static_cast<double>(bounded.samples[i]);
    t.row({std::to_string((i + 1) * 10) + "%",
           fmt_u64(unbounded.samples[i]), fmt_u64(bounded.samples[i]),
           Table::num(ratio, 1)});
  }
  t.print(std::cout);
  std::printf("\nExpected shape: the 'unbounded' column keeps climbing; the "
              "'bounded' column plateaus.\n");

  banner("E4b: bytes written per delivered message",
         "Incremental logging (§5.5) writes only deltas of the Unordered "
         "set.");
  Table t2({"variant", "ab bytes/msg"});
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 401;
  cfg.stack.ab.log_unordered = true;
  Cluster c(cfg);
  c.start_all();
  const int kMsgs = 300;
  run_open_loop(c, kMsgs, 16, millis(5));
  auto* mem = dynamic_cast<MemStableStorage*>(&c.sim().host(0).raw_storage());
  const double bytes_per_msg =
      static_cast<double>(mem->scope_stats("ab").bytes_written) / kMsgs;
  t2.row({"incremental (5.5)", Table::num(bytes_per_msg, 1)});
  t2.print(std::cout);
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
