// E11 — Multi-group total order multicast (paper §6.4, after [17]).
//
// Claim (the "scalable atomic multicast" argument): ordering cost should
// scale with the number of *destination* groups, not with the system size —
// a message to one group pays one AB round; a message to k groups pays one
// AB round per group plus one timestamp exchange plus a FINAL round.

#include <map>

#include "bench_util.hpp"
#include "multicast/multicast.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::multicast;
using abcast::harness::Table;

namespace {

struct McOutcome {
  LatencyStats latency;
  double net_msgs_per_mc = 0;
};

/// `group_count` groups of 3; every multicast goes to `dest_count` groups.
McOutcome run_once(std::uint32_t group_count, std::uint32_t dest_count,
                   std::uint64_t seed) {
  group::GroupConfig layout;
  layout.n_nodes = group_count * 3;
  for (std::uint32_t g = 0; g < group_count; ++g) {
    std::vector<ProcessId> members;
    for (ProcessId i = 0; i < 3; ++i) members.push_back(g * 3 + i);
    layout.members.push_back(members);
  }
  sim::Simulation sim(
      {.n = group_count * 3, .seed = seed});

  std::map<McId, TimePoint> sent;
  std::map<McId, TimePoint> done;
  std::map<McId, std::uint32_t> want;  // deliveries still outstanding
  sim.set_node_factory([&](Env& env) {
    return std::make_unique<MulticastNode>(
        env, layout, [&](const McDelivery& d) {
          auto it = want.find(d.id);
          if (it == want.end()) return;
          if (--it->second == 0) done[d.id] = sim.now();
        });
  });
  sim.start_all();
  auto node = [&sim](ProcessId p) {
    return static_cast<MulticastNode*>(sim.node(p));
  };

  const int kMsgs = 40;
  for (int i = 0; i < kMsgs; ++i) {
    // Destinations: initiator's group plus the next dest_count-1 groups.
    const std::uint32_t origin = static_cast<std::uint32_t>(i) % group_count;
    std::vector<std::uint32_t> dests;
    for (std::uint32_t d = 0; d < dest_count; ++d) {
      dests.push_back((origin + d) % group_count);
    }
    const ProcessId from = static_cast<ProcessId>(origin * 3);
    const auto net_ignore = sim.net_stats();
    (void)net_ignore;
    const McId id = node(from)->mcast({}, dests);
    sent[id] = sim.now();
    want[id] = dest_count * 3;  // every member of every dest group
    sim.run_for(millis(40));
  }
  sim.run_until_pred([&] { return done.size() == sent.size(); },
                     sim.now() + seconds(300));

  McOutcome out;
  std::vector<Duration> latencies;
  for (const auto& [id, t0] : sent) {
    auto it = done.find(id);
    if (it != done.end()) latencies.push_back(it->second - t0);
  }
  out.latency = latency_stats(latencies);
  out.net_msgs_per_mc =
      static_cast<double>(sim.net_stats().sent) / kMsgs;
  return out;
}

void run_tables() {
  banner("E11: multicast cost vs destination-group count",
         "Claim (after [17]): latency and traffic scale with the number of "
         "destination groups, not with the total number of groups.");
  Table t({"groups total", "dest groups", "p50 ms", "p99 ms",
           "net msgs/mc (incl. bg)"});
  for (const std::uint32_t total : {2u, 4u}) {
    for (std::uint32_t dests = 1; dests <= total; dests *= 2) {
      const auto out = run_once(total, dests, 1100 + total * 10 + dests);
      t.row({std::to_string(total), std::to_string(dests),
             Table::num(out.latency.p50_ms), Table::num(out.latency.p99_ms),
             Table::num(out.net_msgs_per_mc, 1)});
    }
  }
  t.print(std::cout);
  std::printf("\nReading: within one row-group, cost rises with 'dest "
              "groups'; across row-groups at equal dest count, total system "
              "size barely matters.\n");
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
