// E14 — Sharded multi-group scale-out.
//
// Claim: with the per-group round pipeline as the ordering bottleneck,
// partitioning the key space over N groups on the SAME nodes multiplies
// aggregate delivered/s by ~N: groups run their consensus rounds
// independently, so shard count is the degree of ordering parallelism.
// Acceptance: ≥3× aggregate delivered/s at 4 shards vs 1 shard, same node
// count, same load profile.
//
// The per-group ceiling comes from the transport, as a real orderer's
// does: on a network of kMaxDatagramBytes a proposal carries what fits one
// datagram, so one group orders a finite msgs/round × rounds/sec. The
// binary exits 1 when any run drops an oversize datagram.
//
// A contrast table shows the failure mode: a hot-key skew collapses the
// load onto few shards and the scale-out evaporates — sharding only buys
// what the router can spread.

#include <string>
#include <vector>

#include "apps/kv_store.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "group/sharded_cluster.hpp"
#include "scenario/load.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::group;
using abcast::harness::Table;

namespace {

constexpr std::uint32_t kNodes = 3;
/// The network's datagram limit. Without a bound a proposal carries the
/// whole backlog and one group absorbs any offered load in virtual time —
/// there would be nothing for sharding to scale.
constexpr std::size_t kMaxDatagramBytes = 700;

/// Runs that dropped an oversize datagram; main() exits 1 when non-zero.
int g_oversize_runs = 0;

ShardedClusterConfig make_config(std::uint32_t shards, std::uint64_t seed) {
  ShardedClusterConfig cfg;
  cfg.sim.n = kNodes;
  cfg.sim.seed = seed;
  cfg.sim.net.max_datagram_bytes = kMaxDatagramBytes;
  cfg.node.layout = GroupConfig::uniform(kNodes, shards);
  // The E2 open-loop profile (§5.4 durable early-return).
  cfg.node.stack.ab.log_unordered = true;
  return cfg;
}

struct ShardRunResult {
  std::uint64_t delivered = 0;
  Duration elapsed = 0;
  std::uint64_t rounds = 0;         // max over groups
  std::uint64_t group_min = 0;      // least-loaded group's agreed total
  std::uint64_t group_max = 0;      // most-loaded group's agreed total
};

/// Same driver shape as bench_util's run_open_loop, but keyed: `clients`
/// puts per 5 ms tick, round-robin senders, `key_of(i)` naming the i-th
/// submission's key. The key stream never depends on the shard count, so
/// every row of one clients-column orders the identical workload.
template <typename KeyFn>
ShardRunResult run_keyed_open_loop(ShardedCluster& c, int total, int clients,
                                   KeyFn key_of) {
  const TimePoint start = c.sim().now();
  int sent = 0;
  ProcessId sender = 0;
  while (sent < total) {
    for (int b = 0; b < clients && sent < total; ++b, ++sent) {
      const std::string key = key_of(sent);
      c.node(sender)->submit(key, apps::KvCommand::put(key, "v"));
      sender = (sender + 1) % c.sim().n();
    }
    c.sim().run_for(millis(5));
  }
  ABCAST_CHECK_MSG(c.await_quiesced(seconds(600)),
                   "bench_shards: cluster failed to quiesce");

  ShardRunResult r;
  r.delivered = c.aggregate_delivered();
  r.elapsed = c.sim().now() - start;
  r.group_min = r.delivered;
  for (std::uint32_t g = 0; g < c.layout().group_count(); ++g) {
    auto& ab = c.node(0)->stack(g).ab();
    r.rounds = std::max(r.rounds, ab.round());
    r.group_min = std::min(r.group_min, ab.agreed().total());
    r.group_max = std::max(r.group_max, ab.agreed().total());
  }
  return r;
}

double per_sec(const ShardRunResult& r) {
  if (r.elapsed <= 0) return 0;
  return static_cast<double>(r.delivered) /
         (static_cast<double>(r.elapsed) / 1e9);
}

void emit_row(const char* experiment, std::uint32_t shards, int clients,
              double hot, const ShardRunResult& r, double speedup,
              ShardedCluster& c) {
  const std::uint64_t oversize = c.sim().net_stats().dropped_oversize;
  if (oversize != 0) {
    std::cerr << "bench_shards: " << experiment << " shards=" << shards
              << " clients=" << clients << " hot=" << hot << " dropped "
              << oversize << " oversize datagrams\n";
    g_oversize_runs += 1;
  }
  Json row;
  row.field("experiment", experiment)
      .field("shards", shards)
      .field("clients", clients)
      .field("hot", hot)
      .field("max_datagram_bytes", kMaxDatagramBytes)
      .field("delivered", r.delivered)
      .field("elapsed_ms", static_cast<double>(r.elapsed) / 1e6)
      .field("throughput_per_sec", per_sec(r))
      .field("speedup_vs_1shard", speedup)
      .field("rounds", r.rounds)
      .field("group_min_delivered", r.group_min)
      .field("group_max_delivered", r.group_max);
  std::ostringstream metrics;
  c.sim().metrics_registry().snapshot().write_json(metrics);
  row.raw("metrics", metrics.str());
  emit_json_row(row);
}

void run_tables() {
  banner("E14: sharded scale-out (shards x clients)",
         "Claim: aggregate delivered/s scales ~linearly with shard count "
         "at fixed node count and load profile (>=3x at 4 shards); the "
         "per-group bounded-batch round pipeline is the unit of ordering "
         "parallelism.");

  const int kTotal = bench_quick() ? 240 : 800;
  const std::vector<int> kClients =
      bench_quick() ? std::vector<int>{16} : std::vector<int>{16, 64};
  const std::vector<std::uint32_t> kShards{1, 2, 4};
  // Uniform closed key cycle: submission i touches "k<i mod 1024>". The
  // FNV router splits this stream exactly evenly across 1/2/4 groups on
  // every prefix, so the scaling rows measure ordering parallelism, not
  // sampling luck; E14b below covers the skewed regime.
  const auto cycle_key = [](int i) { return "k" + std::to_string(i % 1024); };

  {
    Table t({"shards", "clients", "elapsed ms", "agg msgs/s", "speedup",
             "rounds", "grp min/max"});
    for (const int clients : kClients) {
      double base = 0;
      for (const std::uint32_t shards : kShards) {
        ShardedCluster c(make_config(shards, 1400 + shards));
        c.start_all();
        const auto r = run_keyed_open_loop(c, kTotal, clients, cycle_key);
        if (shards == 1) base = per_sec(r);
        const double speedup = base > 0 ? per_sec(r) / base : 0;
        t.row({std::to_string(shards), std::to_string(clients),
               Table::num(static_cast<double>(r.elapsed) / 1e6),
               Table::num(per_sec(r), 0), Table::num(speedup, 2),
               fmt_u64(r.rounds),
               fmt_u64(r.group_min) + "/" + fmt_u64(r.group_max)});
        emit_row("shards_scaleout", shards, clients, 0.0, r, speedup, c);
      }
    }
    t.print(std::cout);
  }

  banner("E14b: hot-key skew vs scale-out (4 shards)",
         "A skewed key distribution collapses load onto few groups; the "
         "grp min/max spread widens and the aggregate rate falls back "
         "toward the 1-shard ceiling. (16-key space: the pick_key hot "
         "subset is a single key, i.e. a single group.)");
  {
    Table t({"hot", "elapsed ms", "agg msgs/s", "grp min/max"});
    const std::vector<double> kHot =
        bench_quick() ? std::vector<double>{0.0, 0.9}
                      : std::vector<double>{0.0, 0.5, 0.9};
    for (const double hot : kHot) {
      ShardedCluster c(make_config(4, 1451));
      c.start_all();
      Rng rng(0xE14B);
      const auto skew_key = [&rng, hot](int) {
        return scenario::pick_key(rng, 16, hot);
      };
      const auto r =
          run_keyed_open_loop(c, kTotal, kClients.front(), skew_key);
      t.row({Table::num(hot, 1),
             Table::num(static_cast<double>(r.elapsed) / 1e6),
             Table::num(per_sec(r), 0),
             fmt_u64(r.group_min) + "/" + fmt_u64(r.group_max)});
      emit_row("shards_hot_skew", 4, kClients.front(), hot, r, 0.0, c);
    }
    t.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  run_tables();
  if (g_oversize_runs != 0) return 1;
  return 0;
}
