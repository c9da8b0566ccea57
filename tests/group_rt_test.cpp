// Multi-group stacks on the real-time host: the same ShardedKvNode on
// UdpCluster event-loop threads over real UDP sockets. The envelope demux
// is the only thing the transport sees — these tests prove the wrapping
// survives real concurrency, real datagrams, and real crash/recovery, not
// just the simulator. (ctest label: threaded.)
#include <gtest/gtest.h>

#include <string>

#include "apps/kv_store.hpp"
#include "group/sharded_kv.hpp"
#include "net/udp_env.hpp"

using namespace abcast;
using namespace abcast::group;
using apps::KvCommand;
using net::UdpCluster;

namespace {

constexpr std::uint32_t kN = 3;
constexpr std::uint32_t kGroups = 2;

ShardedKvOptions make_options() {
  ShardedKvOptions o;
  o.layout = GroupConfig::uniform(kN, kGroups);
  // Durable submissions: a broadcast survives its sender's crash, so the
  // recovery assertions below are deterministic.
  o.stack.ab.log_unordered = true;
  return o;
}

NodeFactory sharded_factory() {
  return [](Env& env) {
    return std::make_unique<ShardedKvNode>(env, make_options());
  };
}

/// Reads `key` from its owning shard at host `p`; empty string if absent.
std::string read_key(net::UdpHost& h, const std::string& key) {
  std::string out;
  h.call([&h, &key, &out] {
    auto* n = static_cast<ShardedKvNode*>(h.node_unsafe());
    const std::uint32_t g = n->router().group_of_key(key);
    out = n->shard(g).kv().get(key).value_or("");
  });
  return out;
}

bool submit_put(net::UdpHost& h, const std::string& key,
                const std::string& value) {
  return h.call([&h, &key, &value] {
    static_cast<ShardedKvNode*>(h.node_unsafe())
        ->submit(key, KvCommand::put(key, value));
  });
}

bool submit_pair(net::UdpHost& h, const std::string& key_a,
                 const std::string& va,
                 const std::string& key_b, const std::string& vb) {
  return h.call([&] {
    static_cast<ShardedKvNode*>(h.node_unsafe())
        ->submit_pair(key_a, KvCommand::put(key_a, va), key_b,
                      KvCommand::put(key_b, vb));
  });
}

/// Two keys hashing to different groups (kGroups == 2).
std::pair<std::string, std::string> split_keys() {
  const GroupRouter router(GroupConfig::uniform(kN, kGroups));
  std::string key_a = "a0", key_b;
  const std::uint32_t ga = router.group_of_key(key_a);
  for (int i = 0;; ++i) {
    key_b = "b" + std::to_string(i);
    if (router.group_of_key(key_b) != ga) return {key_a, key_b};
  }
}

}  // namespace

TEST(GroupRt, OrdersShardedCommandsAcrossThreads) {
  UdpCluster cluster(kN, {.seed = 21});
  cluster.set_node_factory(sharded_factory());
  cluster.start_all();
  for (std::uint32_t i = 0; i < 12; ++i) {
    const std::string key = "key-" + std::to_string(i);
    ASSERT_TRUE(submit_put(cluster.host(static_cast<ProcessId>(i % kN)), key,
                           "v" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < kN; ++p) {
          for (int i = 0; i < 12; ++i) {
            const std::string key = "key-" + std::to_string(i);
            if (read_key(cluster.host(p), key) != "v" + std::to_string(i)) {
              return false;
            }
          }
        }
        return true;
      },
      seconds(60)));
}

TEST(GroupRt, CrossShardPairCommitsUnderCrashRecovery) {
  UdpCluster cluster(kN, {.seed = 22});
  cluster.set_node_factory(sharded_factory());
  cluster.start_all();
  const auto [key_a, key_b] = split_keys();

  ASSERT_TRUE(submit_pair(cluster.host(0), key_a, "L", key_b, "R"));
  // Crash a non-submitting replica right behind the pair, then recover it:
  // the rejoiner rebuilds its holds from replay and applies both sides.
  cluster.crash(2);
  cluster.recover(2);
  ASSERT_TRUE(cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < kN; ++p) {
          if (read_key(cluster.host(p), key_a) != "L") return false;
          if (read_key(cluster.host(p), key_b) != "R") return false;
        }
        return true;
      },
      seconds(60)));
}

TEST(GroupUdp, ShardedStacksOverRealSockets) {
  UdpCluster cluster(kN, {.seed = 23});
  cluster.set_node_factory(sharded_factory());
  cluster.start_all();
  const auto [key_a, key_b] = split_keys();

  for (std::uint32_t i = 0; i < 6; ++i) {
    const std::string key = "key-" + std::to_string(i);
    ASSERT_TRUE(submit_put(cluster.host(i % kN), key, "v" + std::to_string(i)));
  }
  ASSERT_TRUE(submit_pair(cluster.host(1), key_a, "L", key_b, "R"));

  const auto converged = [&] {
    for (ProcessId p = 0; p < kN; ++p) {
      for (int i = 0; i < 6; ++i) {
        const std::string key = "key-" + std::to_string(i);
        if (read_key(cluster.host(p), key) != "v" + std::to_string(i)) {
          return false;
        }
      }
      if (read_key(cluster.host(p), key_a) != "L" ||
          read_key(cluster.host(p), key_b) != "R") {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(cluster.wait_for(converged, seconds(60)));

  // Crash/recover over sockets: the rejoined node reconverges.
  cluster.crash(2);
  EXPECT_FALSE(cluster.host(2).is_up());
  cluster.recover(2);
  const auto back = [&] {
    return read_key(cluster.host(2), key_a) == "L" &&
           read_key(cluster.host(2), key_b) == "R";
  };
  EXPECT_TRUE(cluster.wait_for(back, seconds(60)));
}
