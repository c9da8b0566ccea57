// The production stack over REAL UDP sockets (paper §3.1's transport,
// verbatim: unreliable, duplicating, non-FIFO datagrams).
//
// Three replicas bind localhost UDP ports and order commands through the
// crash-recovery protocol, each logging to its own on-disk segmented log,
// synced once per event-loop pass before that pass's datagrams leave. On top
// of whatever the kernel drops, the hosts drop 5% of their datagrams. One
// replica is killed and recovers while traffic continues. Its host keeps the
// storage object across the crash, so recovery reads the records through the
// open log rather than reopening the segment files. Run:  ./udp_cluster
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "net/udp_env.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::apps;
using namespace abcast::net;
namespace fs = std::filesystem;

int main() {
  const fs::path dir = fs::temp_directory_path() /
                       ("abcast_udp_cluster_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  UdpConfig cfg{.seed = 2026, .drop_prob = 0.05};
  cfg.storage_factory = [dir](ProcessId p) {
    SegmentedLogConfig log;
    log.dir = dir / ("replica" + std::to_string(p));
    log.sync = SyncMode::kDeferred;
    return std::make_unique<SegmentedLogStorage>(log);
  };
  bool ok = false;
  {
    UdpCluster cluster(3, cfg);
    std::printf("three replicas on UDP ports %u, %u, %u, 5%% injected loss\n",
                cluster.host(0).local_port(), cluster.host(1).local_port(),
                cluster.host(2).local_port());

    core::StackConfig stack;
    stack.ab.log_unordered = true;  // submissions survive replica crashes
    cluster.set_node_factory([stack](Env& env) {
      return std::make_unique<RsmNode>(
          env, stack, [] { return std::make_unique<KvStore>(); });
    });
    cluster.start_all();

    auto submit = [&cluster](ProcessId via) {
      auto& h = cluster.host(via);
      return h.call([&h] {
        static_cast<RsmNode*>(h.node_unsafe())
            ->submit(KvCommand::add("counter", 1));
      });
    };
    auto read_counter = [&cluster](ProcessId at) {
      std::int64_t v = -1;
      auto& h = cluster.host(at);
      h.call([&h, &v] {
        v = static_cast<KvStore&>(
                static_cast<RsmNode*>(h.node_unsafe())->rsm().machine())
                .get_int("counter");
      });
      return v;
    };

    std::printf("submitting 24 increments across the replicas...\n");
    for (int i = 0; i < 24; ++i) {
      // Fail over to the next replica if the chosen one is down, exactly
      // what a client library would do.
      for (int attempt = 0; attempt < 3; ++attempt) {
        if (submit(static_cast<ProcessId>((i + attempt) % 3))) break;
      }
      if (i == 11) {
        std::printf("killing replica 2 (socket stays; datagrams drop)...\n");
        cluster.crash(2);
      }
      if (i == 17) {
        std::printf("replica 2 recovering from its log...\n");
        cluster.recover(2);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    ok = cluster.wait_for(
        [&] {
          for (ProcessId p = 0; p < 3; ++p) {
            if (read_counter(p) != 24) return false;
          }
          return true;
        },
        seconds(30));
    for (ProcessId p = 0; p < 3; ++p) {
      std::printf("replica %u counter = %lld\n", p,
                  static_cast<long long>(read_counter(p)));
    }
  }
  std::printf("converged over real UDP: %s\n", ok ? "yes" : "NO");
  fs::remove_all(dir);
  return ok ? 0 : 1;
}
