// E8 — Gossip period: dissemination latency vs bandwidth (paper §4.1–4.2).
//
// Claim: the gossip task is the only dissemination mechanism in the basic
// protocol, so broadcast-to-delivery latency of a message tracks the gossip
// period (plus one consensus round), while network traffic scales inversely
// with it.

#include "bench_util.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct GossipOutcome {
  LatencyStats latency;
  double msgs_per_delivered = 0;
  double bytes_per_sec = 0;
  double gossip_share = 0;     // fraction of datagrams that are gossip
  double heartbeat_share = 0;  // fraction that are FD heartbeats
};

GossipOutcome run_once(Duration gossip_period, bool eager) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 800;
  cfg.stack.ab.gossip_period = gossip_period;
  cfg.stack.ab.eager_dissemination = eager;
  Cluster c(cfg);
  c.start_all();
  // Broadcast from p2 (not the Paxos leader): the message must travel by
  // gossip before the leader can propose it.
  const int total = bench_quick() ? 15 : 60;
  std::vector<MsgId> ids;
  for (int i = 0; i < total; ++i) {
    ids.push_back(c.broadcast(2));
    c.sim().run_for(millis(100));
  }
  c.await_delivery(ids, {}, seconds(600));
  GossipOutcome out;
  out.latency = latency_stats(c.oracle().latencies());
  out.msgs_per_delivered =
      static_cast<double>(c.sim().net_stats().sent) /
      static_cast<double>(total);
  out.bytes_per_sec = static_cast<double>(c.sim().net_stats().bytes_sent) /
                      (static_cast<double>(c.sim().now()) / 1e9);
  const auto& net = c.sim().net_stats();
  const double sent = static_cast<double>(net.sent);
  out.gossip_share = static_cast<double>(net.sent_of(MsgType::kAbGossip)) / sent;
  out.heartbeat_share =
      static_cast<double>(net.sent_of(MsgType::kFdHeartbeat)) / sent;
  return out;
}

// E8c — the digest-gossip tentpole measurement: with a standing backlog of
// unordered messages, full-set gossip re-ships the whole backlog every tick
// while digest mode ships a constant-size cover plus one-shot deltas. The
// axis is the backlog depth; the figure of merit is gossip bytes per
// delivered message, with delivery latency alongside to show the digest
// indirection does not cost tail latency (eager delta pushes keep the
// one-hop path).
struct BacklogOutcome {
  LatencyStats latency;
  double gossip_bytes_per_delivered = 0;
  double gossip_datagrams = 0;
  std::uint64_t delivered = 0;
};

BacklogOutcome run_backlog(int backlog, bool digest) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 801;
  cfg.stack.ab.digest_gossip = digest;
  cfg.stack.ab.eager_dissemination = true;  // both modes get the 1-hop path
  Cluster c(cfg);
  c.start_all();

  const int total = bench_quick() ? backlog + 48 : std::max(384, backlog * 3);
  std::vector<MsgId> ids;
  ids.reserve(static_cast<std::size_t>(total));
  int sent = 0;
  ProcessId sender = 0;
  // Keep `backlog` messages outstanding: top up as deliveries complete.
  while (sent < total) {
    const int outstanding =
        sent - static_cast<int>(c.oracle().global_order().size());
    for (int i = outstanding; i < backlog && sent < total; ++i, ++sent) {
      ids.push_back(c.broadcast(sender, Bytes(64)));
      sender = (sender + 1) % c.sim().n();
    }
    c.sim().run_for(millis(5));
  }
  c.await_delivery(ids, {}, seconds(600));

  BacklogOutcome out;
  out.latency = latency_stats(c.oracle().latencies());
  out.delivered = c.oracle().global_order().size();
  const auto& net = c.sim().net_stats();
  std::uint64_t gossip_bytes = 0;
  for (const auto type : {MsgType::kAbGossip, MsgType::kAbGossipDigest}) {
    auto it = net.bytes_by_type.find(type);
    if (it != net.bytes_by_type.end()) gossip_bytes += it->second;
  }
  out.gossip_bytes_per_delivered = static_cast<double>(gossip_bytes) /
                                   static_cast<double>(out.delivered);
  out.gossip_datagrams =
      static_cast<double>(net.sent_of(MsgType::kAbGossip) +
                          net.sent_of(MsgType::kAbGossipDigest));
  return out;
}

void run_backlog_tables() {
  banner("E8c: gossip bytes vs backlog (full-set vs digest delta)",
         "Claim: full-set gossip re-ships the whole backlog every tick "
         "(bytes/delivered grows with backlog); digest anti-entropy ships a "
         "constant-size cover plus each message once, at equal tail "
         "latency.");
  Table t({"backlog", "mode", "gossip B/delivered", "gossip datagrams",
           "p50 ms", "p99 ms"});
  const std::vector<int> backlogs =
      bench_quick() ? std::vector<int>{8, 64} : std::vector<int>{8, 64, 512};
  for (const int backlog : backlogs) {
    for (const bool digest : {false, true}) {
      const auto out = run_backlog(backlog, digest);
      t.row({std::to_string(backlog), digest ? "digest" : "full",
             Table::num(out.gossip_bytes_per_delivered, 1),
             Table::num(out.gossip_datagrams, 0),
             Table::num(out.latency.p50_ms), Table::num(out.latency.p99_ms)});
      Json row;
      row.field("experiment", "gossip_backlog_sweep")
          .field("backlog", backlog)
          .field("mode", digest ? "digest" : "full")
          .field("gossip_bytes_per_delivered", out.gossip_bytes_per_delivered,
                 1)
          .field("gossip_datagrams", out.gossip_datagrams, 0)
          .field("delivered", out.delivered)
          .field("p50_ms", out.latency.p50_ms, 3)
          .field("p99_ms", out.latency.p99_ms, 3);
      emit_json_row(row);
    }
  }
  t.print(std::cout);
}

void run_tables() {
  banner("E8: gossip period sweep",
         "Claim: delivery latency of a non-leader's message ~ gossip period "
         "+ one consensus round; traffic scales inversely with the period.");
  Table t({"gossip period ms", "p50 ms", "p99 ms", "net msgs/delivered",
           "net KB/s", "gossip %", "heartbeat %"});
  const std::vector<Duration> periods =
      bench_quick()
          ? std::vector<Duration>{millis(30), millis(120)}
          : std::vector<Duration>{millis(5), millis(15), millis(30),
                                  millis(60), millis(120), millis(240)};
  for (const Duration period : periods) {
    const auto out = run_once(period, false);
    t.row({Table::num(static_cast<double>(period) / 1e6, 0),
           Table::num(out.latency.p50_ms), Table::num(out.latency.p99_ms),
           Table::num(out.msgs_per_delivered, 1),
           Table::num(out.bytes_per_sec / 1e3, 1),
           Table::num(out.gossip_share * 100, 0),
           Table::num(out.heartbeat_share * 100, 0)});
    Json row;
    row.field("experiment", "gossip_period_sweep")
        .field("gossip_period_ms", static_cast<double>(period) / 1e6, 0)
        .field("p50_ms", out.latency.p50_ms, 3)
        .field("p99_ms", out.latency.p99_ms, 3)
        .field("net_msgs_per_delivered", out.msgs_per_delivered, 1)
        .field("net_bytes_per_sec", out.bytes_per_sec, 0);
    emit_json_row(row);
  }
  t.print(std::cout);

  banner("E8b: eager dissemination (relay-on-send)",
         "Eagerly multisending each new message removes the gossip-period "
         "term from latency at slight extra traffic (the crash-stop "
         "baseline's dissemination mode).");
  Table t2({"mode", "p50 ms", "p99 ms", "net msgs/delivered"});
  const auto periodic = run_once(millis(60), false);
  const auto eager = run_once(millis(60), true);
  t2.row({"periodic 60ms", Table::num(periodic.latency.p50_ms),
          Table::num(periodic.latency.p99_ms),
          Table::num(periodic.msgs_per_delivered, 1)});
  t2.row({"eager + 60ms repair", Table::num(eager.latency.p50_ms),
          Table::num(eager.latency.p99_ms),
          Table::num(eager.msgs_per_delivered, 1)});
  t2.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  run_tables();
  run_backlog_tables();
  return 0;
}
