// E10 — Liveness under crash/recovery churn (paper §1, §7: the protocol is
// non-blocking — live whenever the underlying Consensus is live).
//
// Claim: goodput degrades gracefully as the crash rate rises, and the
// system never wedges while a majority stays up.

#include <algorithm>
#include <functional>

#include "bench_util.hpp"
#include "sim/fault_plan.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct ChurnOutcome {
  double goodput_per_sec = 0;
  LatencyStats latency;
  std::uint64_t crashes = 0;
  bool all_delivered = false;
};

ChurnOutcome run_once(Duration mtbf, ConsensusKind engine) {
  ClusterConfig cfg;
  cfg.sim.n = 5;
  cfg.sim.seed = 1000;
  cfg.sim.net.drop_prob = 0.05;
  cfg.stack.engine = engine;
  cfg.stack.ab = core::Options::alternative();
  Cluster c(cfg);
  c.start_all();

  std::unique_ptr<sim::ChurnInjector> injector;
  if (mtbf > 0) {
    sim::ChurnConfig churn;
    churn.mtbf = mtbf;
    churn.mttr = millis(400);
    churn.stop = seconds(20);
    churn.victims = {1, 2, 3, 4};  // the broadcaster stays good
    injector = std::make_unique<sim::ChurnInjector>(c.sim(), churn);
  }

  std::vector<MsgId> ids;
  const TimePoint start = c.sim().now();
  for (int i = 0; i < 200; ++i) {
    ids.push_back(c.broadcast(0));
    c.sim().run_for(millis(100));
  }
  c.sim().run_until(seconds(22));
  for (ProcessId p = 0; p < 5; ++p) {
    if (!c.sim().host(p).is_up()) c.sim().recover(p);
  }
  ChurnOutcome out;
  out.all_delivered = c.await_delivery(ids, {}, seconds(300));
  out.goodput_per_sec =
      static_cast<double>(c.oracle().global_order().size()) /
      (static_cast<double>(c.sim().now() - start) / 1e9);
  out.latency = latency_stats(c.oracle().latencies());
  out.crashes = injector ? injector->crashes_injected() : 0;
  return out;
}

void run_tables() {
  banner("E10: goodput vs crash rate (MTTR fixed at 400ms; majority "
         "always up)",
         "Claim: graceful degradation, no wedging; latency tail grows with "
         "churn while goodput tracks the offered load.");
  Table t({"engine", "MTBF", "crashes", "goodput msg/s", "p50 ms", "p99 ms",
           "all delivered"});
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    for (const Duration mtbf :
         {Duration{0}, seconds(10), seconds(5), seconds(2), seconds(1)}) {
      const auto out = run_once(mtbf, engine);
      t.row({to_string(engine),
             mtbf == 0 ? "none" : Table::num(static_cast<double>(mtbf) / 1e9,
                                             0) + "s",
             fmt_u64(out.crashes), Table::num(out.goodput_per_sec, 1),
             Table::num(out.latency.p50_ms), Table::num(out.latency.p99_ms),
             out.all_delivered ? "yes" : "NO"});
    }
  }
  t.print(std::cout);
}

// ---- E10b: storage-fault-rate sweep -------------------------------------
//
// Every host's storage injects rate-driven I/O errors, silent torn puts and
// read bit-rot, plus churn delivered as storage crash-points (the process
// dies AT a log operation, in a random phase). AutoMedic revives whatever
// goes down. Reports recovery latency and the corruption-handling counters,
// and emits one JSON object per sweep point for machine consumption.

struct StorageFaultOutcome {
  double goodput_per_sec = 0;
  std::uint64_t storage_crashes = 0;
  std::uint64_t failed_recoveries = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t torn_puts = 0;
  std::uint64_t bit_flips = 0;
  std::uint64_t crash_points_fired = 0;
  std::uint64_t corrupt_cons = 0;   // consensus records discarded as torn
  std::uint64_t corrupt_ab = 0;     // ab records discarded as torn
  std::uint64_t quarantined = 0;    // instances fenced off after amnesia
  double recovery_p50_ms = 0;
  double recovery_max_ms = 0;
  bool all_delivered = false;
};

StorageFaultOutcome run_storage_once(double scale, ConsensusKind engine) {
  constexpr std::uint32_t kN = 3;
  ClusterConfig cfg;
  cfg.sim.n = kN;
  cfg.sim.seed = 2000 + static_cast<std::uint64_t>(scale * 100);
  cfg.stack.engine = engine;
  cfg.stack.ab = core::Options::alternative();
  cfg.stack.ab.checkpoint_period = millis(100);
  // Rate faults on every host's storage, scaled by the sweep parameter.
  StorageFaultProfile profile;
  profile.put_io_error_prob = 0.002 * scale;
  profile.get_io_error_prob = 0.001 * scale;
  profile.silent_torn_put_prob = 0.001 * scale;
  profile.read_bit_flip_prob = 0.001 * scale;
  cfg.sim.storage_faults = profile;
  Cluster c(cfg);
  c.start_all();

  // Churn delivered as storage crash-points, so crashes land mid-log-op.
  std::unique_ptr<sim::ChurnInjector> injector;
  if (scale > 0) {
    sim::ChurnConfig churn;
    churn.mtbf = seconds(2);
    churn.mttr = millis(200);
    churn.stop = seconds(15);
    churn.storage_crash_prob = 1.0;
    injector = std::make_unique<sim::ChurnInjector>(c.sim(), churn);
  }
  sim::AutoMedic medic(c.sim(), millis(50));

  // Sample host up/down transitions to measure recovery latency (crash to
  // the first successful restart, failed recovery attempts included).
  std::vector<double> recovery_ms;
  std::vector<TimePoint> down_since(kN, 0);
  std::function<void()> sampler = [&] {
    for (ProcessId p = 0; p < kN; ++p) {
      const bool up = c.sim().host(p).is_up();
      if (!up && down_since[p] == 0) down_since[p] = c.sim().now();
      if (up && down_since[p] != 0) {
        recovery_ms.push_back(
            static_cast<double>(c.sim().now() - down_since[p]) / 1e6);
        down_since[p] = 0;
      }
    }
    c.sim().after(millis(5), sampler);
  };
  c.sim().after(millis(5), sampler);

  // Offered load: sender rotates to whoever is up; a broadcast interrupted
  // by a crash-point is tolerated and only counted when it durably
  // completed (log_unordered is on, so completion == durability).
  std::vector<MsgId> must_deliver;
  const TimePoint start = c.sim().now();
  ProcessId sender = 0;
  for (int i = 0; i < 150; ++i) {
    for (std::uint32_t tries = 0; tries < kN; ++tries) {
      sender = (sender + 1) % kN;
      if (c.sim().host(sender).is_up()) break;
    }
    if (c.sim().host(sender).is_up()) {
      const auto attempt = c.broadcast_may_crash(sender);
      if (attempt.completed) must_deliver.push_back(attempt.id);
    }
    c.sim().run_for(millis(100));
  }

  // Quiesce: stop injecting, revive everyone, drain.
  injector.reset();
  for (ProcessId p = 0; p < kN; ++p) {
    c.sim().storage_faults(p).set_profile(StorageFaultProfile{});
    c.sim().storage_faults(p).disarm_crash_point();
  }
  c.sim().run_for(seconds(1));  // let the medic finish revivals

  StorageFaultOutcome out;
  out.all_delivered = c.await_delivery(must_deliver, {}, seconds(300));
  c.oracle().check();
  out.goodput_per_sec =
      static_cast<double>(c.oracle().global_order().size()) /
      (static_cast<double>(c.sim().now() - start) / 1e9);
  for (ProcessId p = 0; p < kN; ++p) {
    const auto& hs = c.sim().host(p).stats();
    out.storage_crashes += hs.storage_crashes;
    out.failed_recoveries += hs.failed_recoveries;
    const auto& fs = c.sim().storage_faults(p).fault_stats();
    out.io_errors += fs.io_errors;
    out.torn_puts += fs.torn_puts;
    out.bit_flips += fs.bit_flips;
    out.crash_points_fired += fs.crash_points_fired;
    auto* st = c.stack(p);
    out.corrupt_cons += st->consensus().metrics().corrupt_records;
    out.quarantined += st->consensus().metrics().quarantined;
    out.corrupt_ab += st->ab().metrics().corrupt_records;
  }
  if (!recovery_ms.empty()) {
    std::sort(recovery_ms.begin(), recovery_ms.end());
    out.recovery_p50_ms = recovery_ms[recovery_ms.size() / 2];
    out.recovery_max_ms = recovery_ms.back();
  }

  Json row;
  row.field("experiment", "storage_fault_sweep")
      .field("engine", to_string(engine))
      .field("scale", scale, 1)
      .field("storage_crashes", out.storage_crashes)
      .field("failed_recoveries", out.failed_recoveries)
      .field("io_errors", out.io_errors)
      .field("torn_puts", out.torn_puts)
      .field("bit_flips", out.bit_flips)
      .field("crash_points_fired", out.crash_points_fired)
      .field("corrupt_records_consensus", out.corrupt_cons)
      .field("corrupt_records_ab", out.corrupt_ab)
      .field("quarantined_instances", out.quarantined)
      .field("recovery_p50_ms", out.recovery_p50_ms)
      .field("recovery_max_ms", out.recovery_max_ms)
      .field("goodput_per_sec", out.goodput_per_sec)
      .field("all_delivered", out.all_delivered);
  with_metrics(row, c);
  emit_json_row(row);
  return out;
}

void run_storage_tables() {
  banner("E10b: goodput and recovery latency vs storage-fault rate",
         "Claim: torn/corrupt records are detected and contained (replayed "
         "around or quarantined), so safety holds and goodput degrades "
         "gracefully as the storage gets worse.");
  Table t({"engine", "scale", "storage crashes", "failed recov", "io errs",
           "torn", "corrupt recs", "quarantined", "recov p50 ms",
           "goodput msg/s", "all delivered"});
  std::printf("\n[storage-fault sweep JSON]\n");
  for (const auto engine : {ConsensusKind::kPaxos, ConsensusKind::kCoord}) {
    for (const double scale : {0.0, 1.0, 2.0, 5.0, 10.0}) {
      const auto out = run_storage_once(scale, engine);
      t.row({to_string(engine), Table::num(scale, 0),
             fmt_u64(out.storage_crashes), fmt_u64(out.failed_recoveries),
             fmt_u64(out.io_errors), fmt_u64(out.torn_puts),
             fmt_u64(out.corrupt_cons + out.corrupt_ab),
             fmt_u64(out.quarantined), Table::num(out.recovery_p50_ms, 1),
             Table::num(out.goodput_per_sec, 1),
             out.all_delivered ? "yes" : "NO"});
    }
  }
  std::printf("\n");
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  run_tables();
  run_storage_tables();
  return 0;
}
