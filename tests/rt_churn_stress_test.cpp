// Multi-threaded churn stress for the real-time host — the TSan workhorse.
//
// Several external threads hammer the cluster at once, exercising exactly
// the cross-thread surfaces ThreadSanitizer needs to see exercised:
//   * two submitter threads A-broadcast through call() on different hosts;
//   * a churn thread crash()/recover()s a third host in a tight loop;
//   * a snapshot thread reads the cluster MetricsRegistry (the bound
//     AbMetrics/ConsensusMetrics slots race hot-path increments unless the
//     slots are RelaxedU64) and the per-host TraceRecorders;
//   * the main thread polls via wait_for() predicates.
//
// With log_unordered every accepted submit is durably logged before call()
// returns, so despite the churn every accepted command must eventually be
// applied on every replica — the final convergence check is exact, not
// best-effort. Part of the `threaded` ctest label that
// scripts/check_sanitize.sh thread runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "obs/metrics.hpp"
#include "net/udp_env.hpp"

using namespace abcast;
using namespace abcast::apps;

namespace {

struct ChurnKv {
  ChurnKv(std::uint32_t n, net::UdpConfig cfg, core::StackConfig stack)
      : applied(n), cluster(n, std::move(cfg)) {
    for (auto& a : applied) a = std::make_unique<std::atomic<std::uint64_t>>(0);
    cluster.set_node_factory([this, stack](Env& env) {
      const ProcessId pid = env.self();
      return std::make_unique<RsmNode>(
          env, stack, [] { return std::make_unique<KvStore>(); },
          [this, pid](const core::AppMsg&) { applied[pid]->fetch_add(1); });
    });
  }

  bool submit(ProcessId p) {
    auto& h = cluster.host(p);
    return h.call([&h] {
      static_cast<RsmNode*>(h.node_unsafe())->submit(KvCommand::add("n", 1));
    });
  }

  std::int64_t read_int(ProcessId p) {
    std::int64_t out = -1;
    auto& h = cluster.host(p);
    h.call([&h, &out] {
      out = static_cast<KvStore&>(
                static_cast<RsmNode*>(h.node_unsafe())->rsm().machine())
                .get_int("n");
    });
    return out;
  }

  // `applied` outlives `cluster`: host threads increment the counters via
  // the apply callback until ~UdpCluster joins them.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> applied;
  net::UdpCluster cluster;
};

}  // namespace

TEST(RtChurnStress, ConcurrentBroadcastSurvivesCrashRecoverChurn) {
  net::UdpConfig cfg{.seed = 11, .trace_capacity = 1 << 12};
  cfg.drop_prob = 0.05;  // a little injected loss keeps retransmit paths hot
  cfg.dup_prob = 0.05;
  core::StackConfig stack;
  stack.ab.log_unordered = true;

  ChurnKv c(3, cfg, stack);
  c.cluster.start_all();

  constexpr int kPerSubmitter = 25;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<bool> churning{true};

  // Submitters target the two hosts the churn thread never touches, so an
  // accepted (durably logged) command is never lost with its process.
  std::vector<std::thread> submitters;
  for (const ProcessId home : {ProcessId{0}, ProcessId{2}}) {
    submitters.emplace_back([&c, &accepted, home] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        if (c.submit(home)) accepted.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  std::thread churner([&c, &churning] {
    while (churning.load()) {
      c.cluster.crash(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      c.cluster.recover(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(35));
    }
  });

  // Concurrent observers: registry snapshots race the hot-path increments,
  // recorder reads race the host threads' record() calls.
  std::thread observer([&c, &churning] {
    std::uint64_t snapshots = 0;
    while (churning.load()) {
      const auto snap = c.cluster.metrics_registry().snapshot();
      (void)snap.sum_by_name("ab_delivered");
      for (ProcessId p = 0; p < 3; ++p) {
        if (auto* rec = c.cluster.host(p).tracer()) (void)rec->events();
      }
      snapshots += 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(snapshots, 0u);
  });

  for (auto& t : submitters) t.join();
  churning.store(false);
  churner.join();
  observer.join();
  if (!c.cluster.host(1).is_up()) c.cluster.recover(1);

  const std::uint64_t want = accepted.load();
  ASSERT_EQ(want, 2u * kPerSubmitter) << "submitters only hit up hosts";

  // Every accepted command was durably logged before call() returned, so
  // every replica must converge on the exact total. Converge on the KV
  // value, not the `applied` callback counts: a recovered node re-applies
  // replayed positions, so the callback counter over-counts across
  // incarnations (it exists to exercise concurrent increments, not to
  // count deliveries).
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.read_int(p) != static_cast<std::int64_t>(want)) return false;
        }
        return true;
      },
      seconds(120)));

  // The registry survives every crash; node 0 never crashed and delivered
  // every command, so the summed bound slots show at least `want`.
  const auto snap = c.cluster.metrics_registry().snapshot();
  EXPECT_GE(snap.sum_by_name("ab_delivered"), static_cast<std::int64_t>(want));
}

// A tighter loop on the lifecycle lock ordering alone: crash/recover from
// one thread while another calls into the host and a third snapshots. No
// protocol traffic to hide behind — this isolates the event loop's task
// queue and up_/node_ handoff discipline.
TEST(RtChurnStress, LifecycleCallSnapshotInterleaving) {
  core::StackConfig stack;
  ChurnKv c(2, {.seed = 13}, stack);
  c.cluster.start_all();

  std::atomic<bool> done{false};
  std::thread caller([&c, &done] {
    while (!done.load()) {
      (void)c.submit(1);  // false while 1 is down — that is the point
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread snapshotter([&c, &done] {
    while (!done.load()) {
      (void)c.cluster.metrics_registry().snapshot();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int cycle = 0; cycle < 20; ++cycle) {
    c.cluster.crash(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    c.cluster.recover(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  done.store(true);
  caller.join();
  snapshotter.join();

  // The cluster is still live after the churn.
  ASSERT_TRUE(c.submit(0));
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.applied[0]->load() >= 1; }, seconds(60)));
}
