// E13 — Adversarial scenario sweep under open-loop load (DESIGN.md §12).
//
// Claim: across a wide band of generated hostile schedules — asymmetric
// partitions, flapping links, gray failure, clock skew, slow disks,
// correlated crash bursts, crash-point storms — every required delivery
// lands, the strict offline checker stays green, and the SLO-windowed
// latency tail degrades instead of the protocol wedging or lying.
//
// The sweep runs a seed range disjoint from the scenario_sweep_test range
// (10000+ vs 0..99), so a full build exercises well over 200 distinct
// oracle-checked scenarios. One JSON row per scenario carries the
// serialized one-line reproduction plus the windowed p50/p99/p999 series;
// any failure prints `SCENARIO-FAIL <line>` for copy-paste replay.

#include <cstdio>

#include "bench_util.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;
using namespace abcast::scenario;

namespace {

constexpr std::uint64_t kSweepBase = 10000;  // disjoint from the test sweep

double ms(Duration d) { return static_cast<double>(d) / 1e6; }

/// Renders the windowed latency series as a nested JSON array:
/// [{"start_ms":..,"count":..,"p50_ms":..,"p99_ms":..,"p999_ms":..},...].
std::string windows_json(const std::vector<obs::WindowedLatency::Window>& ws) {
  std::string out = "[";
  for (const auto& w : ws) {
    if (out.size() > 1) out += ',';
    Json j;
    j.field("start_ms", ms(w.start), 1)
        .field("count", w.count)
        .field("p50_ms", ms(w.p50), 3)
        .field("p99_ms", ms(w.p99), 3)
        .field("p999_ms", ms(w.p999), 3);
    out += j.str();
  }
  out += ']';
  return out;
}

/// Runs one scenario, emits its JSON row, and prints the one-line
/// reproduction on failure.
RunResult run_one(const Scenario& s, const char* tag) {
  const std::string line = s.serialize();
  const RunResult r = run_scenario(s);
  if (!r.ok()) {
    std::printf("SCENARIO-FAIL %s\n  failure: %s\n", line.c_str(),
                r.failure.c_str());
  }
  Json row;
  row.field("experiment", "scenario_sweep")
      .field("tag", tag)
      .field("seed", s.seed)
      .field("scenario", line)
      .field("engine", to_string(s.engine))
      .field("variant", s.alternative ? "alt" : "basic")
      .field("gossip", s.digest_gossip ? "digest" : "full")
      .field("n", s.n)
      .field("clauses", s.clauses.size())
      .field("ok", r.ok())
      .field("arrivals", r.load.arrivals)
      .field("completed", r.load.completed)
      .field("rejected_down", r.load.rejected_down)
      .field("required", r.required)
      .field("delivered_global", r.delivered_global)
      .field("order_digest", r.order_digest)
      .field("p50_ms", ms(r.overall.p50), 3)
      .field("p99_ms", ms(r.overall.p99), 3)
      .field("p999_ms", ms(r.overall.p999), 3)
      .field("max_ms", ms(r.overall.max), 3)
      .raw("windows", windows_json(r.windows));
  emit_json_row(row);
  return r;
}

/// A hand-tuned heavy cell beyond what the generator draws: 4096 open-loop
/// client sessions pushing through a mid-run gray window and a slow disk.
/// Exercises the "thousands of simulated client sessions" end of the load
/// driver while everything else in the sweep stays generator-shaped.
Scenario heavy_scenario() {
  Scenario s;
  s.seed = 424242;
  s.n = 3;
  s.horizon = millis(900);
  s.engine = ConsensusKind::kPaxos;
  s.alternative = true;
  s.digest_gossip = true;
  LoadClause load;
  load.at = millis(20);
  load.hold = millis(700);
  load.mean_gap = micros(400);
  load.clients = 4096;
  load.bytes = 16;
  s.clauses.push_back(load);
  GrayClause gray;
  gray.at = millis(200);
  gray.hold = millis(250);
  gray.node = 1;
  gray.rx_factor = 6.0;
  s.clauses.push_back(gray);
  DiskClause disk;
  disk.at = millis(450);
  disk.hold = millis(200);
  disk.node = 2;
  disk.delay_min = micros(50);
  disk.delay_max = micros(500);
  disk.stall_prob = 0.01;
  disk.stall = millis(5);
  s.clauses.push_back(disk);
  return s;
}

/// Prints the sweep; returns how many scenarios failed.
std::uint64_t run_tables() {
  banner("E13: adversarial scenario sweep, open-loop load, strict oracle",
         "Claim: under generated hostile schedules the protocol never "
         "wedges and never lies — required deliveries land, traces pass "
         "the strict checker, and the latency tail absorbs the abuse.");

  const std::uint64_t count = bench_quick() ? 6 : 103;
  std::uint64_t failures = 0;
  std::uint64_t total = 0;
  Table t({"tag", "seed", "engine", "variant", "gossip", "completed",
           "delivered", "p50 ms", "p99 ms", "p999 ms", "ok"});
  // The printed table shows the first 8 cells (one per engine x variant x
  // gossip combination), every failure, and the heavy cell; the JSONL file
  // carries every row.
  for (std::uint64_t seed = kSweepBase; seed < kSweepBase + count; ++seed) {
    const Scenario s = generate_scenario(seed);
    const RunResult r = run_one(s, "generated");
    total += 1;
    if (!r.ok()) ++failures;
    if (seed < kSweepBase + 8 || !r.ok()) {
      t.row({"generated", fmt_u64(seed), to_string(s.engine),
             s.alternative ? "alt" : "basic",
             s.digest_gossip ? "digest" : "full", fmt_u64(r.load.completed),
             fmt_u64(r.delivered_global), Table::num(ms(r.overall.p50)),
             Table::num(ms(r.overall.p99)), Table::num(ms(r.overall.p999)),
             r.ok() ? "yes" : "NO"});
    }
  }

  {
    const Scenario s = heavy_scenario();
    const RunResult r = run_one(s, "heavy4096");
    total += 1;
    if (!r.ok()) ++failures;
    t.row({"heavy4096", fmt_u64(s.seed), to_string(s.engine), "alt", "digest",
           fmt_u64(r.load.completed), fmt_u64(r.delivered_global),
           Table::num(ms(r.overall.p50)), Table::num(ms(r.overall.p99)),
           Table::num(ms(r.overall.p999)), r.ok() ? "yes" : "NO"});
  }

  std::printf("\n");
  t.print(std::cout);
  std::printf("\nscenarios=%llu failures=%llu\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(failures));
  return failures;
}

/// Replays one serialized scenario line (the text a failing sweep seed
/// prints) and reports the verdict. Exit code: 0 ok, 1 oracle failure,
/// 2 parse error.
int run_single(const std::string& line) {
  std::string err;
  const auto s = Scenario::parse(line, &err);
  if (!s) {
    std::fprintf(stderr, "scenario parse error: %s\n", err.c_str());
    return 2;
  }
  const RunResult r = run_one(*s, "replay");
  std::printf("replay %s: delivered=%s quiesced=%s checker=%s "
              "(completed=%llu delivered_global=%llu digest=%llu)\n",
              r.ok() ? "OK" : "FAIL", r.delivered ? "yes" : "NO",
              r.quiesced ? "yes" : "NO", r.checker_ok ? "yes" : "NO",
              static_cast<unsigned long long>(r.load.completed),
              static_cast<unsigned long long>(r.delivered_global),
              static_cast<unsigned long long>(r.order_digest));
  return r.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  // --scenario='scn1 ...' replays one serialized line instead of sweeping.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--scenario=";
    if (arg.rfind(prefix, 0) == 0) {
      return run_single(arg.substr(prefix.size()));
    }
  }
  // A red scenario fails the run (and so run_bench.sh and sim_outputs.sh),
  // not just its JSONL row.
  return run_tables() == 0 ? 0 : 1;
}
