// E9 — Crash-recovery machinery vs the crash-stop Chandra-Toueg baseline
// (paper §5.6: "when crashes are definitive, the protocol reduces to the
// Chandra-Toueg Atomic Broadcast").
//
// In a crash-free run the protocols do the same ordering work; the
// crash-recovery versions additionally pay log operations. The simulator
// charges log ops zero time, so the table also projects end-to-end latency
// for several per-fsync costs — that projection is where the baseline's
// advantage (and the minimal-logging design's point) shows.

#include "bench_util.hpp"
#include "core/crash_stop_ab.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct BaselineOutcome {
  WorkloadResult workload;
  double log_ops_per_msg = 0;     // per process, on the ordering path
  double net_msgs_per_msg = 0;
};

BaselineOutcome run_once(const char* which) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 900;
  const std::string name = which;
  if (name == "crash-stop CT") {
    cfg.stack = core::crash_stop_baseline_config(ConsensusKind::kPaxos);
  } else if (name == "basic (Fig.2)") {
    cfg.stack.ab = core::Options::basic();
  } else {
    cfg.stack.ab = core::Options::alternative();
  }
  Cluster c(cfg);
  c.start_all();
  BaselineOutcome out;
  const int kMsgs = 200;
  out.workload = run_open_loop(c, kMsgs, 8, millis(20));
  std::uint64_t puts = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    puts += c.sim().host(p).storage().stats().put_ops;
  }
  // The crash-stop model has no stable storage: a crash-free run never reads
  // the baseline's writes back, so its log ops are zero by definition.
  out.log_ops_per_msg = name == "crash-stop CT"
                            ? 0.0
                            : static_cast<double>(puts) / (3.0 * kMsgs);
  out.net_msgs_per_msg =
      static_cast<double>(out.workload.net_messages) / kMsgs;
  return out;
}

void run_tables() {
  banner("E9: crash-recovery cost over the crash-stop baseline",
         "Claim: in a crash-free run the ordering work is the same; the "
         "crash-recovery protocol pays only its log operations — which the "
         "basic variant keeps to the Consensus-internal minimum.");
  Table t({"protocol", "p50 ms", "p99 ms", "log ops/msg",
           "net msgs/msg", "+fsync 0.1ms", "+fsync 1ms", "+fsync 10ms"});
  for (const char* which :
       {"crash-stop CT", "basic (Fig.2)", "alternative (full)"}) {
    const auto out = run_once(which);
    t.row({which, Table::num(out.workload.latency.p50_ms),
           Table::num(out.workload.latency.p99_ms),
           Table::num(out.log_ops_per_msg, 2),
           Table::num(out.net_msgs_per_msg, 1),
           Table::num(project_latency_ms(out.workload.latency.p50_ms,
                                         out.log_ops_per_msg, 0.1)),
           Table::num(project_latency_ms(out.workload.latency.p50_ms,
                                         out.log_ops_per_msg, 1.0)),
           Table::num(project_latency_ms(out.workload.latency.p50_ms,
                                         out.log_ops_per_msg, 10.0))});
  }
  t.print(std::cout);
  std::printf("\n('+fsync X' columns project p50 latency when each log "
              "operation costs X ms of synchronous disk time)\n");
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
