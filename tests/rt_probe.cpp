#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "net/udp_env.hpp"

using namespace abcast;

int main() {
  // Declared before the cluster so the counters outlive the host threads,
  // which increment them until ~UdpCluster joins.
  std::atomic<std::uint64_t> applied[3];
  for (auto& a : applied) a = 0;
  net::UdpCluster cluster(3, {.drop_prob = 0.05});
  cluster.set_node_factory([&](Env& env) {
    const ProcessId pid = env.self();
    core::StackConfig scfg;
    // Durable Unordered set (§5.4): messages survive the broadcaster's crash.
    scfg.ab.log_unordered = true;
    return std::make_unique<apps::RsmNode>(
        env, scfg,
        [] { return std::make_unique<apps::KvStore>(); },
        [&applied, pid](const core::AppMsg&) { applied[pid]++; });
  });
  cluster.start_all();

  for (int i = 0; i < 20; ++i) {
    auto& h = cluster.host(static_cast<ProcessId>(i % 3));
    h.call([&h, i] {
      auto* node = static_cast<apps::RsmNode*>(h.node_unsafe());
      node->submit(apps::KvCommand::add("counter", 1));
      (void)i;
    });
  }
  cluster.crash(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cluster.recover(2);

  const bool ok = cluster.wait_for(
      [&] {
        return applied[0].load() >= 20 && applied[1].load() >= 20 &&
               applied[2].load() >= 20;
      },
      seconds(20));
  std::int64_t v0 = -1;
  cluster.host(0).call([&] {
    auto* node = static_cast<apps::RsmNode*>(cluster.host(0).node_unsafe());
    v0 = static_cast<apps::KvStore&>(node->rsm().machine()).get_int("counter");
  });
  std::printf("rt probe ok=%d applied=%llu/%llu/%llu counter=%lld\n", int(ok),
              (unsigned long long)applied[0].load(),
              (unsigned long long)applied[1].load(),
              (unsigned long long)applied[2].load(), (long long)v0);
  return ok && v0 == 20 ? 0 : 1;
}
