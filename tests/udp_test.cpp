// Tests for the UDP transport: the same protocol stacks over real sockets
// on localhost. UDP *is* the paper's §3.1 transport (unreliable datagrams,
// fair-lossy), so no loss injection is needed — the retransmission
// machinery covers whatever the kernel drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "common/check.hpp"
#include "net/udp_env.hpp"

using namespace abcast;
using namespace abcast::net;
using namespace abcast::apps;

namespace {

struct UdpKv {
  explicit UdpKv(std::uint32_t n, std::uint64_t seed,
                 core::StackConfig stack = {}, UdpBatchConfig batch = {})
      : applied(n),
        registry(std::make_unique<obs::MetricsRegistry>()),
        hosts(make_local_udp_cluster(n, seed, batch, registry.get())) {
    for (auto& a : applied) {
      a = std::make_unique<std::atomic<std::uint64_t>>(0);
    }
    factory = [this, stack](Env& env) {
      const ProcessId pid = env.self();
      return std::make_unique<RsmNode>(
          env, stack, [] { return std::make_unique<KvStore>(); },
          [this, pid](const core::AppMsg&) { applied[pid]->fetch_add(1); });
    };
    for (auto& h : hosts) h->start_node(factory, /*recovering=*/false);
  }

  bool submit_add(ProcessId via, std::int64_t delta) {
    auto& h = *hosts[via];
    return h.call([&h, delta] {
      static_cast<RsmNode*>(h.node_unsafe())
          ->submit(KvCommand::add("n", delta));
    });
  }

  bool submit_put(ProcessId via, std::string key, std::string value) {
    auto& h = *hosts[via];
    return h.call([&h, &key, &value] {
      static_cast<RsmNode*>(h.node_unsafe())
          ->submit(KvCommand::put(key, value));
    });
  }

  std::int64_t read_n(ProcessId at) {
    std::int64_t v = -1;
    auto& h = *hosts[at];
    h.call([&h, &v] {
      v = static_cast<KvStore&>(
              static_cast<RsmNode*>(h.node_unsafe())->rsm().machine())
              .get_int("n");
    });
    return v;
  }

  bool wait_for(const std::function<bool()>& pred, Duration timeout) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  // `applied` and `registry` are declared before `hosts` so they are
  // destroyed after them: ~UdpHost joins the loop thread, which runs the
  // apply callback that increments these counters right up until the join,
  // and unbinds its net_* metrics group (TSan-verified).
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> applied;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::vector<std::unique_ptr<UdpHost>> hosts;
  NodeFactory factory;
};

}  // namespace

TEST(Udp, ClusterBindsDistinctEphemeralPorts) {
  auto hosts = make_local_udp_cluster(3, 1);
  EXPECT_NE(hosts[0]->local_port(), 0);
  EXPECT_NE(hosts[0]->local_port(), hosts[1]->local_port());
  EXPECT_NE(hosts[1]->local_port(), hosts[2]->local_port());
}

TEST(Udp, OrdersCommandsOverRealSockets) {
  UdpKv c(3, 2);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(c.submit_add(static_cast<ProcessId>(i % 3), 1));
  }
  ASSERT_TRUE(c.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 12) return false;
        }
        return true;
      },
      seconds(60)));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.read_n(p), 12);
}

TEST(Udp, CrashRecoveryOverRealSockets) {
  core::StackConfig stack;
  stack.ab.log_unordered = true;  // submissions survive the sender's crash
  UdpKv c(3, 3, stack);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(c.submit_add(0, 1));
  }
  ASSERT_TRUE(c.wait_for(
      [&] { return c.applied[2]->load() >= 6; }, seconds(60)));
  c.hosts[2]->crash_node();
  EXPECT_FALSE(c.hosts[2]->is_up());
  EXPECT_FALSE(c.submit_add(2, 1));  // call() refuses on a down node
  c.hosts[2]->start_node(c.factory, /*recovering=*/true);
  // Recovery replays from this host's surviving storage.
  ASSERT_TRUE(c.wait_for([&] { return c.read_n(2) == 6; }, seconds(60)));
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
  UdpKv c(3, 5, stack);

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(c.submit_add(0, 1));
  ASSERT_TRUE(c.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 3) return false;
        }
        return true;
      },
      seconds(60)));

  c.hosts[2]->crash_node();
  // Grow the surviving replicas' state well past one UDP frame: ~100 KiB of
  // key-value payload, folded into the application checkpoint as the
  // alternative protocol checkpoints and truncates.
  const std::string blob(1024, 'v');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.submit_put(static_cast<ProcessId>(i % 2),
                             "blob-" + std::to_string(i), blob));
  }
  ASSERT_TRUE(c.wait_for(
      [&] {
        return c.applied[0]->load() >= 103 && c.applied[1]->load() >= 103;
      },
      seconds(60)));
  // Let checkpoints fold the history away and truncate the consensus log
  // past what the rejoining peer could replay.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  c.hosts[2]->start_node(c.factory, /*recovering=*/true);
  ASSERT_TRUE(c.wait_for(
      [&] {
        auto& h = *c.hosts[2];
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
  auto hosts = make_local_udp_cluster(2, 4);
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
  UdpKv c(3, 7, {}, batch);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(c.submit_add(static_cast<ProcessId>(i % 3), 1));
  }
  ASSERT_TRUE(c.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 12) return false;
        }
        return true;
      },
      seconds(60)));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.read_n(p), 12);

  std::uint64_t syscalls = 0, datagrams = 0;
  for (const auto& h : c.hosts) {
    syscalls += h->net_metrics().send_syscalls.load();
    datagrams += h->net_metrics().send_datagrams.load();
  }
  EXPECT_GT(datagrams, 0u);
  // Gossip/consensus traffic is dominated by 3-way multisends, each of
  // which coalesces into a single sendmmsg; a strict < would already prove
  // batching, the 0.8 factor adds headroom against singleton flushes.
  EXPECT_LT(static_cast<double>(syscalls),
            0.8 * static_cast<double>(datagrams));

  // The same counters are visible through the registry (net_* bindings).
  const auto snap = c.registry->snapshot();
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
    auto hosts = make_local_udp_cluster(2, 10, batch);
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
    auto hosts = make_local_udp_cluster(2, 12, batch);
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
  auto hosts = make_local_udp_cluster(3, 11, batch);
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
  auto hosts = make_local_udp_cluster(2, 8, {}, &registry);
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
  UdpKv c(3, 11, {}, batch);
  constexpr std::uint64_t kPuts = 10'000;
  auto& h0 = *c.hosts[0];
  ASSERT_TRUE(h0.call([&h0] {
    auto* node = static_cast<RsmNode*>(h0.node_unsafe());
    const std::string value(64, 'v');
    for (std::uint64_t i = 0; i < kPuts; ++i) {
      node->submit(KvCommand::put("k" + std::to_string(i), value));
    }
  }));
  EXPECT_TRUE(c.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < kPuts) return false;
        }
        return true;
      },
      seconds(30)));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.applied[p]->load(), kPuts) << "p" << p;
    EXPECT_EQ(c.hosts[p]->send_failures(), 0u) << "p" << p;
  }
}

// A command too big for admission is the caller's error: call() rethrows
// RequestRefused on the submitting thread, and the host orders on.
TEST(Udp, RefusedCommandReachesTheCallerAndTheLoopRunsOn) {
  UdpKv c(3, 13);
  EXPECT_THROW(c.submit_put(0, "big", std::string(70'000, 'x')),
               RequestRefused);
  ASSERT_TRUE(c.submit_put(0, "small", std::string(64, 's')));
  EXPECT_TRUE(c.wait_for(
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
  UdpKv c(3, 9, {}, batch);
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
  ASSERT_TRUE(c.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 3 * kPerThread) return false;
        }
        return true;
      },
      seconds(60)));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.read_n(p), 3 * kPerThread);
}
