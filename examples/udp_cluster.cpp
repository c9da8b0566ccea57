// The full stack over REAL UDP sockets (paper §3.1's transport, verbatim:
// unreliable, duplicating, non-FIFO datagrams).
//
// Three replicas bind localhost UDP ports and order commands through the
// crash-recovery protocol; one replica is killed and recovers from its
// storage while traffic continues. Everything the simulator injected
// (loss, reordering) here comes from the actual kernel. Run:  ./udp_cluster
#include <chrono>
#include <cstdio>
#include <thread>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "net/udp_env.hpp"

using namespace abcast;
using namespace abcast::apps;
using namespace abcast::net;

int main() {
  auto hosts = make_local_udp_cluster(3, 2026);
  std::printf("three replicas on UDP ports %u, %u, %u\n",
              hosts[0]->local_port(), hosts[1]->local_port(),
              hosts[2]->local_port());

  core::StackConfig stack;
  stack.ab.log_unordered = true;  // submissions survive replica crashes
  NodeFactory factory = [stack](Env& env) {
    return std::make_unique<RsmNode>(
        env, stack, [] { return std::make_unique<KvStore>(); });
  };
  for (auto& h : hosts) h->start_node(factory, /*recovering=*/false);

  auto submit = [&](ProcessId via) {
    auto& h = *hosts[via];
    return h.call([&h] {
      static_cast<RsmNode*>(h.node_unsafe())
          ->submit(KvCommand::add("counter", 1));
    });
  };
  auto read_counter = [&](ProcessId at) {
    std::int64_t v = -1;
    auto& h = *hosts[at];
    h.call([&h, &v] {
      v = static_cast<KvStore&>(
              static_cast<RsmNode*>(h.node_unsafe())->rsm().machine())
              .get_int("counter");
    });
    return v;
  };

  std::printf("submitting 24 increments across the replicas...\n");
  for (int i = 0; i < 24; ++i) {
    // Fail over to the next replica if the chosen one is down.
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (submit(static_cast<ProcessId>((i + attempt) % 3))) break;
    }
    if (i == 11) {
      std::printf("killing replica 2 (socket stays; datagrams drop)...\n");
      hosts[2]->crash_node();
    }
    if (i == 17) {
      std::printf("replica 2 recovering from its log...\n");
      hosts[2]->start_node(factory, /*recovering=*/true);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  bool ok = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    ok = read_counter(0) == 24 && read_counter(1) == 24 &&
         read_counter(2) == 24;
    if (ok) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (ProcessId p = 0; p < 3; ++p) {
    std::printf("replica %u counter = %lld\n", p,
                static_cast<long long>(read_counter(p)));
  }
  std::printf("converged over real UDP: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
