// Total-order multicast to distinct groups (paper §6.4).
//
// Nine processes form three replicated services ("users", "orders",
// "billing"); cross-service events are multicast to exactly the services
// that need them, yet any two services that share an event see all their
// shared events in the same order — without a global sequencer. Run:
// ./multigroup
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "multicast/multicast.hpp"
#include "sim/simulation.hpp"

using namespace abcast;
using namespace abcast::multicast;

namespace {

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string str_of(const Bytes& b) { return std::string(b.begin(), b.end()); }

constexpr std::uint32_t kUsers = 0;
constexpr std::uint32_t kOrders = 1;
constexpr std::uint32_t kBilling = 2;
const char* kGroupNames[] = {"users", "orders", "billing"};

}  // namespace

int main() {
  const group::GroupConfig layout{
      .n_nodes = 9, .members = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}};
  sim::Simulation sim({.n = 9, .seed = 31});

  // Per-process delivery logs (payload strings) for the final report.
  std::vector<std::vector<std::string>> log(9);
  sim.set_node_factory([&](Env& env) {
    const ProcessId pid = env.self();
    log[pid].clear();
    return std::make_unique<MulticastNode>(
        env, layout, [&log, pid](const McDelivery& d) {
          log[pid].push_back(str_of(d.payload));
        });
  });
  sim.start_all();
  auto node = [&sim](ProcessId p) {
    return static_cast<MulticastNode*>(sim.node(p));
  };

  // A little cross-service workload.
  node(0)->mcast(text("user:signup(alice)"), {kUsers});
  node(3)->mcast(text("order:created(#1,alice)"), {kOrders, kUsers});
  node(3)->mcast(text("order:paid(#1)"), {kOrders, kBilling});
  node(6)->mcast(text("billing:invoice(#1)"), {kBilling});
  node(0)->mcast(text("user:deleted(alice)"), {kUsers, kOrders, kBilling});
  node(4)->mcast(text("order:created(#2,bob)"), {kOrders, kUsers});

  // One replica of "orders" crashes and recovers mid-run.
  sim.crash_at(millis(80), 5);
  sim.recover_at(millis(400), 5);

  sim.run_until_pred(
      [&] {
        // users sees 4 events, orders 4, billing 3.
        return log[0].size() >= 4 && log[3].size() >= 4 &&
               log[5].size() >= 4 && log[6].size() >= 3;
      },
      seconds(60));

  for (std::uint32_t g = 0; g < 3; ++g) {
    const ProcessId rep = layout.members[g][0];
    std::printf("%s service (replica p%u) delivered, in order:\n",
                kGroupNames[g], rep);
    for (const auto& e : log[rep]) std::printf("    %s\n", e.c_str());
  }

  // Verify the cross-group guarantee on a shared pair: "order:paid" vs
  // "user:deleted" are both delivered at orders AND billing.
  auto index_of = [&](ProcessId p, const std::string& e) {
    const auto& v = log[p];
    return std::distance(v.begin(), std::find(v.begin(), v.end(), e));
  };
  const bool same_order =
      (index_of(3, "order:paid(#1)") < index_of(3, "user:deleted(alice)")) ==
      (index_of(6, "order:paid(#1)") < index_of(6, "user:deleted(alice)"));
  std::printf("\nshared events ordered identically at 'orders' and "
              "'billing': %s\n", same_order ? "yes" : "NO");
  return same_order ? 0 : 1;
}
