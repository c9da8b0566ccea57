// Tests for the real-time host: the same protocol stacks over threads, the
// steady clock and real sockets on localhost. UDP *is* the paper's §3.1
// transport (unreliable datagrams, fair-lossy); the injected drop and
// duplication add loss on top of whatever the kernel drops. Crash/recovery
// semantics, file-backed durability, traces and the UDP framing limits.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "common/check.hpp"
#include "net/udp_env.hpp"
#include "obs/trace_check.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::net;
using namespace abcast::apps;
namespace fs = std::filesystem;

namespace {

/// A KvStore replica (RsmNode) started on every host of a UdpCluster.
struct UdpKv {
  explicit UdpKv(std::uint32_t n, UdpConfig cfg = {},
                 core::StackConfig stack = {})
      : applied(n), cluster(n, std::move(cfg)) {
    for (auto& a : applied) {
      a = std::make_unique<std::atomic<std::uint64_t>>(0);
    }
    cluster.set_node_factory([this, stack](Env& env) {
      const ProcessId pid = env.self();
      // Count applies per host position; the counter survives crashes.
      return std::make_unique<RsmNode>(
          env, stack, [] { return std::make_unique<KvStore>(); },
          [this, pid](const core::AppMsg&) { applied[pid]->fetch_add(1); });
    });
    cluster.start_all();
  }

  /// Runs `fn(node)` on p's host thread; false if p is down.
  bool with_node(ProcessId p, const std::function<void(RsmNode&)>& fn) {
    auto& h = cluster.host(p);
    return h.call([&h, &fn] {
      fn(*static_cast<RsmNode*>(h.node_unsafe()));
    });
  }

  bool submit_add(ProcessId via, std::int64_t delta) {
    return with_node(via, [delta](RsmNode& n) {
      n.submit(KvCommand::add("n", delta));
    });
  }

  bool submit_put(ProcessId via, std::string key, std::string value) {
    return with_node(via, [&key, &value](RsmNode& n) {
      n.submit(KvCommand::put(key, value));
    });
  }

  std::int64_t read_int(ProcessId p, const std::string& key = "n") {
    std::int64_t out = -1;
    with_node(p, [&](RsmNode& n) {
      out = static_cast<KvStore&>(n.rsm().machine()).get_int(key);
    });
    return out;
  }

  // `applied` outlives `cluster`: host threads increment the counters via
  // the apply callback until ~UdpCluster joins them (TSan-verified).
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> applied;
  UdpCluster cluster;
};

}  // namespace

TEST(Udp, ClusterBindsDistinctEphemeralPorts) {
  auto hosts = make_local_udp_cluster(3, {});
  EXPECT_NE(hosts[0]->local_port(), 0);
  EXPECT_NE(hosts[0]->local_port(), hosts[1]->local_port());
  EXPECT_NE(hosts[1]->local_port(), hosts[2]->local_port());
}

// Building a cluster must not leak a descriptor when it fails. With
// RLIMIT_NOFILE lowered so that exactly `slots` more descriptors fit, the
// build throws `what`, and every descriptor it opened must be closed by the
// time the throw reaches the caller. One free slot: the second socket()
// fails (EMFILE) before any host exists. Seven: all three sockets bind and
// the first two hosts open their wake pipes, then the third host's pipe2()
// fails, so the two built hosts must close their sockets and both pipe ends.
TEST(Udp, FailedClusterBuildClosesTheSocketsItBound) {
  const auto open_fds = [] {
    return std::distance(fs::directory_iterator("/proc/self/fd"),
                         fs::directory_iterator{});
  };
  // One build at the normal limit first. UBSan's vptr check opens a pipe
  // for each (vtable, type) pair it has not yet seen, which under the
  // lowered limit would find no descriptor free; this fills its cache.
  make_local_udp_cluster(3, {});
  for (const auto& [slots, what] :
       {std::pair{1, "socket() failed"}, std::pair{7, "pipe2() failed"}}) {
    const auto before = open_fds();
    // The soft limit that leaves `slots` descriptors free: the number of
    // the (slots + 1)-th unused one.
    int limit = -1;
    for (int unused = 0; unused <= slots;) {
      if (::fcntl(++limit, F_GETFD) == -1) ++unused;
    }
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(limit);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
    std::string error = "no error";
    try {
      make_local_udp_cluster(3, {});
    } catch (const std::runtime_error& e) {
      // The limit goes back first: a sanitizer may need a descriptor to
      // check `e`.
      ::setrlimit(RLIMIT_NOFILE, &saved);
      error = e.what();
    }
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    EXPECT_EQ(error, what) << slots << " free descriptors";
    EXPECT_EQ(open_fds(), before) << slots << " free descriptors";
  }
}

namespace {

/// Per host, how many messages arrived with each tag (the first payload
/// byte).
using Seen = std::array<std::array<std::atomic<int>, 32>, 2>;

struct TagCounter final : NodeApp {
  explicit TagCounter(std::array<std::atomic<int>, 32>& seen) : seen_(seen) {}
  void start(bool) override {}
  void on_message(ProcessId, const Wire& msg) override {
    seen_[msg.payload.get().at(0)].fetch_add(1);
  }
  std::array<std::atomic<int>, 32>& seen_;
};

/// Starts a TagCounter on both hosts of `c`.
void start_counters(UdpCluster& c, Seen& seen) {
  c.set_node_factory([&seen](Env& env) {
    return std::make_unique<TagCounter>(seen[env.self()]);
  });
  c.start_all();
}

Wire tagged(std::uint8_t tag) { return Wire{MsgType::kAbGossip, Bytes{tag}}; }

}  // namespace

// drop_prob = 1 loses every datagram bound for a peer, and never a message
// to self: host 0's sends to itself and its multisends' self copies still
// arrive, after the barrier of the pass that sent them.
TEST(Udp, InjectedDropSparesMessagesToSelf) {
  Seen seen{};
  UdpCluster c(2, {.seed = 41, .drop_prob = 1.0});
  start_counters(c, seen);
  UdpHost& h0 = c.host(0);
  ASSERT_TRUE(h0.call([&h0, &seen] {
    for (std::uint8_t i = 0; i < 10; ++i) {
      h0.send(1, tagged(i));
      h0.multisend(tagged(10 + i));
      h0.send(0, tagged(20 + i));
    }
    EXPECT_EQ(seen[0][10].load(), 0);  // not inside the sending pass
  }));
  ASSERT_TRUE(c.wait_for(
      [&] { return seen[0][19].load() == 1 && seen[0][29].load() == 1; },
      seconds(10)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[0][10 + i].load(), 1) << "multisend " << int{i};
    EXPECT_EQ(seen[0][20 + i].load(), 1) << "send to self " << int{i};
  }
  for (const auto& n : seen[1]) EXPECT_EQ(n.load(), 0);
  EXPECT_EQ(h0.net_metrics().send_datagrams.load(), 0u);
  EXPECT_EQ(c.host(1).net_metrics().recv_datagrams.load(), 0u);
}

// dup_prob = 1 sends every datagram bound for a peer twice, and a message
// to self once.
TEST(Udp, InjectedDuplicationSendsEveryPeerDatagramTwice) {
  Seen seen{};
  UdpCluster c(2, {.seed = 42, .dup_prob = 1.0});
  start_counters(c, seen);
  UdpHost& h0 = c.host(0);
  ASSERT_TRUE(h0.call([&h0] {
    for (std::uint8_t i = 0; i < 10; ++i) {
      h0.send(1, tagged(i));
      h0.multisend(tagged(10 + i));
    }
  }));
  const auto all_arrived = [&seen] {
    for (std::uint8_t i = 0; i < 20; ++i) {
      if (seen[1][i].load() < 2) return false;
    }
    return true;
  };
  ASSERT_TRUE(c.wait_for(all_arrived, seconds(10)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::uint8_t i = 0; i < 20; ++i) {
    EXPECT_EQ(seen[1][i].load(), 2) << "tag " << int{i};
  }
  for (std::uint8_t i = 10; i < 20; ++i) {
    EXPECT_EQ(seen[0][i].load(), 1) << "self copy " << int{i};
  }
  EXPECT_EQ(h0.net_metrics().send_datagrams.load(), 2u * 20);
}

// Regression test for the >64 KiB catch-up livelock: a peer that lags past
// the truncation horizon of a cluster whose Agreed history exceeds the UDP
// frame limit can only recover via state transfer, and a one-shot state
// datagram above 64 KiB is silently dropped by the transport — the peer
// would retry forever. The chunked catch-up session must stream the state
// in datagrams of at most max_datagram_bytes() instead; its snapshot
// slices fill that limit exactly.
TEST(Udp, LargeStateCatchUpAfterTruncation) {
  core::StackConfig stack;
  stack.ab = core::Options::alternative();
  stack.ab.checkpoint_period = millis(100);
  stack.ab.delta = 2;
  UdpKv c(3, {.seed = 5}, stack);

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(c.submit_add(0, 1));
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 3) return false;
        }
        return true;
      },
      seconds(60)));

  c.cluster.crash(2);
  // Grow the surviving replicas' state well past one UDP frame: ~100 KiB of
  // key-value payload, folded into the application checkpoint as the
  // alternative protocol checkpoints and truncates.
  const std::string blob(1024, 'v');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.submit_put(static_cast<ProcessId>(i % 2),
                             "blob-" + std::to_string(i), blob));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        return c.applied[0]->load() >= 103 && c.applied[1]->load() >= 103;
      },
      seconds(60)));
  // Let checkpoints fold the history away and truncate the consensus log
  // past what the rejoining peer could replay.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  c.cluster.recover(2);
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        auto& h = c.cluster.host(2);
        bool converged = false;
        h.call([&h, &converged] {
          const auto& kv = static_cast<const KvStore&>(
              static_cast<RsmNode*>(h.node_unsafe())->rsm().machine());
          converged = kv.get_int("n") == 3 && kv.get("blob-99").has_value();
        });
        return converged;
      },
      seconds(60)));
}

TEST(Udp, OversizedDatagramsAreCountedNotFatal) {
  auto hosts = make_local_udp_cluster(2, {.seed = 4});
  struct Blaster final : NodeApp {
    explicit Blaster(Env& env) : env_(env) {}
    void start(bool) override {
      env_.send(1, Wire{MsgType::kAbGossip, Bytes(70 * 1024, 0xAB)});
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
  };
  hosts[0]->start_node(
      [](Env& env) { return std::make_unique<Blaster>(env); }, false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hosts[0]->send_failures() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(hosts[0]->send_failures(), 1u);
}

// Batching is the unbatched engine with larger batches: it must still order
// every command while demonstrably coalescing syscalls — every 3-peer
// multisend is one sendmmsg instead of three.
TEST(Udp, BatchedModeOrdersCommandsAndCoalescesSyscalls) {
  UdpBatchConfig batch;
  batch.enabled = true;
  UdpKv c(3, {.seed = 7, .batch = batch});
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(c.submit_add(static_cast<ProcessId>(i % 3), 1));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 12) return false;
        }
        return true;
      },
      seconds(60)));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.read_int(p), 12);

  std::uint64_t syscalls = 0, datagrams = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    syscalls += c.cluster.host(p).net_metrics().send_syscalls.load();
    datagrams += c.cluster.host(p).net_metrics().send_datagrams.load();
  }
  EXPECT_GT(datagrams, 0u);
  // Gossip/consensus traffic is dominated by 3-way multisends, each of
  // which coalesces into a single sendmmsg; a strict < would already prove
  // batching, the 0.8 factor adds headroom against singleton flushes.
  EXPECT_LT(static_cast<double>(syscalls),
            0.8 * static_cast<double>(datagrams));

  // The same counters are visible through the registry (net_* bindings).
  const auto snap = c.cluster.metrics_registry().snapshot();
  EXPECT_EQ(snap.sum_by_name("net_send_datagrams"),
            static_cast<std::int64_t>(datagrams));
  EXPECT_GT(snap.sum_by_name("net_recv_datagrams"), 0);
}

// A frame between the IPv4 payload limit (65507) and 64 KiB used to pass
// the size check and then fail inside sendmmsg, which dropped every
// datagram queued behind it in the same pass. The oversize frame must fail
// alone, in both batch modes.
TEST(Udp, OversizeFrameFailsAlone) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "unbatched");
    std::atomic<int> small_received{0};
    UdpBatchConfig batch;
    batch.enabled = batched;
    auto hosts = make_local_udp_cluster(2, {.seed = 10, .batch = batch});
    struct Sink final : NodeApp {
      explicit Sink(std::atomic<int>& small) : small_(small) {}
      void start(bool) override {}
      void on_message(ProcessId, const Wire& msg) override {
        if (msg.payload.size() == 8) small_.fetch_add(1);
      }
      std::atomic<int>& small_;
    };
    const NodeFactory factory = [&small_received](Env&) {
      return std::make_unique<Sink>(small_received);
    };
    for (auto& h : hosts) h->start_node(factory, /*recovering=*/false);

    // A 65510-byte payload frames to 65520 bytes ([u32 pid][u16 type]
    // [u32 len][payload]): over the limit, under 64 KiB.
    UdpHost& h0 = *hosts[0];
    ASSERT_TRUE(h0.call([&h0] {
      h0.send(1, Wire{MsgType::kAbGossip, Bytes(65510, 0xAB)});
      h0.send(1, Wire{MsgType::kAbGossip, Bytes(8, 0xCD)});
    }));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (small_received.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(small_received.load(), 1);
    EXPECT_EQ(h0.send_failures(), 1u);
    hosts.clear();  // joins the loops before small_received dies
  }
}

// The limit is exact: a payload of max_datagram_bytes() fills IPv4's UDP
// payload to the byte and arrives intact, one byte more is counted in
// send_failures, and a small datagram queued behind it in the same pass
// still arrives. Snapshot slices fill the limit exactly, so an off-by-one
// here would livelock Udp.LargeStateCatchUpAfterTruncation.
TEST(Udp, PayloadOfExactlyTheLimitArrives) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "unbatched");
    std::atomic<int> full_received{0}, small_received{0};
    UdpBatchConfig batch;
    batch.enabled = batched;
    auto hosts = make_local_udp_cluster(2, {.seed = 12, .batch = batch});
    UdpHost& h0 = *hosts[0];
    const std::size_t limit = h0.max_datagram_bytes();
    struct Sink final : NodeApp {
      Sink(std::size_t limit, std::atomic<int>& full, std::atomic<int>& small)
          : limit_(limit), full_(full), small_(small) {}
      void start(bool) override {}
      void on_message(ProcessId, const Wire& msg) override {
        const Bytes& p = msg.payload;
        if (p.size() == limit_ &&
            std::all_of(p.begin(), p.end(),
                        [](std::uint8_t b) { return b == 0xAB; })) {
          full_.fetch_add(1);
        }
        if (p.size() == 8) small_.fetch_add(1);
      }
      std::size_t limit_;
      std::atomic<int>& full_;
      std::atomic<int>& small_;
    };
    const NodeFactory factory = [&, limit](Env&) {
      return std::make_unique<Sink>(limit, full_received, small_received);
    };
    for (auto& h : hosts) h->start_node(factory, /*recovering=*/false);

    ASSERT_TRUE(h0.call([&h0, limit] {
      h0.send(1, Wire{MsgType::kAbGossip, Bytes(limit, 0xAB)});
      h0.send(1, Wire{MsgType::kAbGossip, Bytes(limit + 1, 0xAB)});
      h0.send(1, Wire{MsgType::kAbGossip, Bytes(8, 0xCD)});
    }));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((full_received.load() == 0 || small_received.load() == 0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(full_received.load(), 1);
    EXPECT_EQ(small_received.load(), 1);
    EXPECT_EQ(h0.send_failures(), 1u);
    hosts.clear();  // joins the loops before the counters die
  }
}

// Batched sends go out in sendmmsg chunks of 16. Eleven multisends to
// three hosts queue 22 datagrams to the two peers in one pass: exactly two
// syscalls (16 + 6), and every host receives all eleven. Host 0's own
// copies reach it through the loop, not the socket: it receives no
// datagram.
TEST(Udp, BatchedFlushSendsInChunksOf16) {
  std::vector<std::unique_ptr<std::atomic<int>>> received;
  for (int i = 0; i < 3; ++i) {
    received.push_back(std::make_unique<std::atomic<int>>(0));
  }
  UdpBatchConfig batch;
  batch.enabled = true;
  auto hosts = make_local_udp_cluster(3, {.seed = 11, .batch = batch});
  struct Counter final : NodeApp {
    explicit Counter(std::atomic<int>& n) : n_(n) {}
    void start(bool) override {}
    void on_message(ProcessId, const Wire&) override { n_.fetch_add(1); }
    std::atomic<int>& n_;
  };
  for (ProcessId p = 0; p < 3; ++p) {
    hosts[p]->start_node(
        [&received, p](Env&) {
          return std::make_unique<Counter>(*received[p]);
        },
        /*recovering=*/false);
  }

  constexpr int kMultisends = 11;
  UdpHost& h0 = *hosts[0];
  ASSERT_TRUE(h0.call([&h0] {
    for (int i = 0; i < kMultisends; ++i) {
      h0.multisend(Wire{MsgType::kAbGossip, Bytes(16, 0x5A)});
    }
  }));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto all_arrived = [&received] {
    for (const auto& n : received) {
      if (n->load() < kMultisends) return false;
    }
    return true;
  };
  while (!all_arrived() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(received[p]->load(), kMultisends) << "host " << p;
  }
  EXPECT_EQ(h0.net_metrics().send_syscalls.load(), 2u);
  EXPECT_EQ(h0.net_metrics().send_datagrams.load(), 2u * kMultisends);
  EXPECT_EQ(h0.net_metrics().recv_datagrams.load(), 0u);
  hosts.clear();  // joins the loops before the counters die
}

// send_failures was host-local state invisible to the obs layer; it must
// surface in the registry snapshot like every other counter.
TEST(Udp, SendFailuresVisibleInMetricsRegistry) {
  obs::MetricsRegistry registry;
  auto hosts = make_local_udp_cluster(2, {.seed = 8, .registry = &registry});
  struct Blaster final : NodeApp {
    explicit Blaster(Env& env) : env_(env) {}
    void start(bool) override {
      env_.send(1, Wire{MsgType::kAbGossip, Bytes(70 * 1024, 0xAB)});
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
  };
  hosts[0]->start_node(
      [](Env& env) { return std::make_unique<Blaster>(env); }, false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hosts[0]->send_failures() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto snap = registry.snapshot();
  EXPECT_GE(snap.value("net_send_failures", {{"node", "0"}}), 1);
  EXPECT_EQ(snap.value("net_send_failures", {{"node", "1"}}), 0);
  hosts.clear();  // unbind before the registry dies
}

// A burst bigger than one datagram converges: proposals and gossip carry
// what fits the transport's limit, and the rest rides later rounds. Ten
// thousand 64-byte puts submitted in one call make a backlog of about
// 0.9 MB at p0; an unbounded proposal of it could never be sent.
TEST(Udp, BurstBeyondOneDatagramConverges) {
  UdpBatchConfig batch;
  batch.enabled = true;
  UdpKv c(3, {.seed = 11, .batch = batch});
  constexpr std::uint64_t kPuts = 10'000;
  auto& h0 = c.cluster.host(0);
  ASSERT_TRUE(h0.call([&h0] {
    auto* node = static_cast<RsmNode*>(h0.node_unsafe());
    const std::string value(64, 'v');
    for (std::uint64_t i = 0; i < kPuts; ++i) {
      node->submit(KvCommand::put("k" + std::to_string(i), value));
    }
  }));
  EXPECT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < kPuts) return false;
        }
        return true;
      },
      seconds(30)));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.applied[p]->load(), kPuts) << "p" << p;
    EXPECT_EQ(c.cluster.host(p).send_failures(), 0u) << "p" << p;
  }
}

// A command too big for admission is the caller's error: call() rethrows
// RequestRefused on the submitting thread, and the host orders on.
TEST(Udp, RefusedCommandReachesTheCallerAndTheLoopRunsOn) {
  UdpKv c(3, {.seed = 13});
  EXPECT_THROW(c.submit_put(0, "big", std::string(70'000, 'x')),
               RequestRefused);
  ASSERT_TRUE(c.submit_put(0, "small", std::string(64, 's')));
  EXPECT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 1) return false;
        }
        return true;
      },
      seconds(30)));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.applied[p]->load(), 1u) << "p" << p;
  }
}

// Concurrent external submitters against the batched engine: the send
// queue and buffer ring are loop-thread-only, the metrics are relaxed
// atomics — TSan (ctest -L threaded) holds this test to that story.
TEST(Udp, ConcurrentSubmittersWithBatchingConverge) {
  UdpBatchConfig batch;
  batch.enabled = true;
  UdpKv c(3, {.seed = 9, .batch = batch});
  constexpr int kPerThread = 8;
  std::vector<std::thread> submitters;
  for (ProcessId p = 0; p < 3; ++p) {
    submitters.emplace_back([&c, p] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(c.submit_add(p, 1));
      }
    });
  }
  for (auto& t : submitters) t.join();
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 3 * kPerThread) return false;
        }
        return true;
      },
      seconds(60)));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.read_int(p), 3 * kPerThread);
}

// ------------------------------------------- the real-time runtime, end to end

TEST(Rt, OrdersCommandsAcrossThreads) {
  UdpKv c(3, {.seed = 1});
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(c.with_node(static_cast<ProcessId>(i % 3), [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 15) return false;
        }
        return true;
      },
      seconds(30)));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.read_int(p, "n"), 15);
}

TEST(Rt, ToleratesLossyNetwork) {
  UdpKv c(3, {.seed = 2, .drop_prob = 0.2, .dup_prob = 0.1});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.with_node(0, [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.applied[2]->load() >= 10; }, seconds(60)));
  EXPECT_EQ(c.read_int(2, "n"), 10);
}

TEST(Rt, CrashRecoveryRebuildsReplica) {
  core::StackConfig stack;
  stack.ab.log_unordered = true;
  UdpKv c(3, {.seed = 3}, stack);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.with_node(0, [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.applied[2]->load() >= 10; }, seconds(30)));
  c.cluster.crash(2);
  EXPECT_FALSE(c.cluster.host(2).is_up());
  EXPECT_FALSE(c.with_node(2, [](RsmNode&) {}));  // call() refuses when down
  c.cluster.recover(2);
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.read_int(2, "n") == 10; }, seconds(30)));
}

// The offline checker audits real threaded runs where the in-process
// oracle cannot see: enable per-host trace rings, run through a
// crash/recovery, and verify the merged trace upholds the AB properties.
TEST(Rt, TraceRecorderAuditsThreadedRun) {
  const UdpConfig cfg{.seed = 7, .trace_capacity = 1 << 14};
  core::StackConfig stack;
  stack.ab.log_unordered = true;
  UdpKv c(3, cfg, stack);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.with_node(static_cast<ProcessId>(i % 3), [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.applied[0]->load() >= 10; }, seconds(30)));
  c.cluster.crash(1);
  c.cluster.recover(1);
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.read_int(p, "n") != 10) return false;
        }
        return true;
      },
      seconds(60)));

  std::vector<obs::TraceEvent> merged;
  for (ProcessId p = 0; p < 3; ++p) {
    auto* rec = c.cluster.host(p).tracer();
    ASSERT_NE(rec, nullptr);
    auto events = rec->events();
    EXPECT_FALSE(events.empty()) << "node " << p << " recorded nothing";
    merged.insert(merged.end(), events.begin(), events.end());
  }
  // The run may still have stragglers in flight, so keep the lax
  // (non-quiesced) Validity/Termination semantics.
  const auto report = obs::check_trace(merged);
  for (const auto& v : report.violations) ADD_FAILURE() << obs::to_string(v);
  EXPECT_EQ(report.stats.nodes, 3u);
  EXPECT_GT(report.stats.delivers, 0u);
  EXPECT_GT(report.stats.log_writes, 0u);  // log_unordered => ab/ writes
}

TEST(Rt, DurableUnorderedSurvivesBroadcasterCrash) {
  core::StackConfig stack;
  stack.ab.log_unordered = true;
  UdpKv c(3, {.seed = 4}, stack);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.with_node(2, [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  c.cluster.crash(2);  // possibly before ordering completed
  c.cluster.recover(2);
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.read_int(0, "n") == 5; }, seconds(60)));
}

TEST(Rt, FileBackedStorageSurvives) {
  const fs::path dir =
      fs::temp_directory_path() / ("abcast_rt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    UdpConfig cfg{.seed = 5};
    cfg.storage_factory = [dir](ProcessId p) {
      // The production log: records sync at each loop pass's barrier.
      SegmentedLogConfig log;
      log.dir = dir / ("node" + std::to_string(p));
      log.sync = SyncMode::kDeferred;
      return std::make_unique<SegmentedLogStorage>(log);
    };
    core::StackConfig stack;
    stack.ab.log_unordered = true;
    UdpKv c(3, cfg, stack);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(c.with_node(0, [](RsmNode& n) {
        n.submit(KvCommand::add("n", 1));
      }));
    }
    ASSERT_TRUE(c.cluster.wait_for(
        [&] { return c.read_int(1, "n") == 8; }, seconds(30)));
    c.cluster.crash(1);
    c.cluster.recover(1);
    ASSERT_TRUE(c.cluster.wait_for(
        [&] { return c.read_int(1, "n") == 8; }, seconds(30)));
  }
  // The consensus log is actually on disk.
  EXPECT_FALSE(fs::is_empty(dir / "node0"));
  fs::remove_all(dir);
}

TEST(Rt, TimersFireAndCancel) {
  UdpCluster cluster(1, {.seed = 6});
  std::atomic<int> fired{0};
  struct TimerNode final : NodeApp {
    TimerNode(Env& env, std::atomic<int>& counter)
        : env_(env), counter_(counter) {}
    void start(bool) override {
      env_.schedule_after(millis(10), [this] { counter_ += 1; });
      const TimerId id =
          env_.schedule_after(millis(10), [this] { counter_ += 100; });
      env_.cancel_timer(id);
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
    std::atomic<int>& counter_;
  };
  cluster.set_node_factory([&fired](Env& env) {
    return std::make_unique<TimerNode>(env, fired);
  });
  cluster.start_all();
  ASSERT_TRUE(cluster.wait_for([&] { return fired.load() >= 1; }, seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 1);
}
