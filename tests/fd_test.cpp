// Tests for the epoch failure detector: completeness (crashed processes get
// suspected), eventual accuracy (timeouts adapt), epochs, leader hint.
#include <gtest/gtest.h>

#include "fd/failure_detector.hpp"
#include "sim/simulation.hpp"

using namespace abcast;
using namespace abcast::sim;

namespace {

class FdNode final : public NodeApp {
 public:
  explicit FdNode(Env& env) : fd_(env) {}

  void start(bool) override { fd_.start(); }
  void on_message(ProcessId from, const Wire& msg) override {
    if (fd_.handles(msg.type)) fd_.on_message(from, msg);
  }

  EpochFailureDetector& fd() { return fd_; }

 private:
  EpochFailureDetector fd_;
};

struct FdCluster {
  explicit FdCluster(SimConfig cfg) : sim(cfg) {
    sim.set_node_factory(
        [](Env& env) { return std::make_unique<FdNode>(env); });
    sim.start_all();
  }
  EpochFailureDetector& fd(ProcessId p) {
    return static_cast<FdNode*>(sim.node(p))->fd();
  }
  Simulation sim;
};

}  // namespace

TEST(Fd, EventuallyTrustsAllLiveProcesses) {
  FdCluster c({.n = 4, .seed = 1});
  c.sim.run_for(seconds(2));
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(c.fd(p).trusted_set().size(), 4u) << "at p" << p;
  }
}

TEST(Fd, SuspectsACrashedProcess) {
  FdCluster c({.n = 3, .seed = 1});
  c.sim.run_for(seconds(1));
  c.sim.crash(2);
  c.sim.run_for(seconds(2));
  EXPECT_FALSE(c.fd(0).trusted(2));
  EXPECT_FALSE(c.fd(1).trusted(2));
}

TEST(Fd, TrustsAgainAfterRecovery) {
  FdCluster c({.n = 3, .seed = 1});
  c.sim.run_for(seconds(1));
  c.sim.crash(2);
  c.sim.run_for(seconds(2));
  c.sim.recover(2);
  c.sim.run_for(seconds(2));
  EXPECT_TRUE(c.fd(0).trusted(2));
  EXPECT_TRUE(c.fd(1).trusted(2));
}

TEST(Fd, AlwaysTrustsSelf) {
  FdCluster c({.n = 2, .seed = 1});
  EXPECT_TRUE(c.fd(0).trusted(0));
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(c.fd(1).trusted(1));
}

TEST(Fd, EpochIncrementsOnEveryRecovery) {
  FdCluster c({.n = 2, .seed = 1});
  EXPECT_EQ(c.fd(0).epoch(), 1u);
  c.sim.crash(0);
  c.sim.recover(0);
  EXPECT_EQ(c.fd(0).epoch(), 2u);
  c.sim.crash(0);
  c.sim.recover(0);
  EXPECT_EQ(c.fd(0).epoch(), 3u);
}

TEST(Fd, PeersObserveEpochBump) {
  FdCluster c({.n = 2, .seed = 1});
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.fd(1).epoch_of(0), 1u);
  c.sim.crash(0);
  c.sim.recover(0);
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.fd(1).epoch_of(0), 2u);
}

TEST(Fd, LeaderIsSmallestTrustedId) {
  FdCluster c({.n = 3, .seed = 1});
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.fd(1).leader(), 0u);
  EXPECT_EQ(c.fd(2).leader(), 0u);
  c.sim.crash(0);
  c.sim.run_for(seconds(2));
  EXPECT_EQ(c.fd(1).leader(), 1u);
  EXPECT_EQ(c.fd(2).leader(), 1u);
  c.sim.recover(0);
  c.sim.run_for(seconds(2));
  EXPECT_EQ(c.fd(1).leader(), 0u);
}

TEST(Fd, WrongSuspicionGrowsTimeout) {
  // A transient outage (partition, not crash) makes p0 suspect p1 while p1
  // is actually alive in the same epoch; when heartbeats resume, the
  // detector must register the wrong suspicion and grow its timeout.
  FdCluster c({.n = 2, .seed = 2});
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(c.fd(0).trusted(1));

  c.sim.block_link(1, 0);
  c.sim.run_for(millis(500));  // well past the 100ms initial timeout
  EXPECT_FALSE(c.fd(0).trusted(1));

  c.sim.unblock_link(1, 0);
  c.sim.run_for(millis(500));
  EXPECT_TRUE(c.fd(0).trusted(1));
  EXPECT_EQ(c.fd(0).wrong_suspicions(), 1u);

  // Second episode shorter than the grown timeout (100+50 = 150ms): the
  // adapted detector no longer flaps.
  c.sim.block_link(1, 0);
  c.sim.run_for(millis(120));
  EXPECT_TRUE(c.fd(0).trusted(1));
  c.sim.unblock_link(1, 0);
  c.sim.run_for(millis(500));
  EXPECT_EQ(c.fd(0).wrong_suspicions(), 1u);
}

TEST(Fd, OneLogOperationPerIncarnation) {
  FdCluster c({.n = 1, .seed = 1});
  auto* mem = dynamic_cast<MemStableStorage*>(&c.sim.host(0).raw_storage());
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->scope_stats("fd").put_ops, 1u);
  c.sim.run_for(seconds(5));
  EXPECT_EQ(mem->scope_stats("fd").put_ops, 1u);  // heartbeats don't log
  c.sim.crash(0);
  c.sim.recover(0);
  EXPECT_EQ(mem->scope_stats("fd").put_ops, 2u);
}

// ------------------------------------------------ suspect-list detector

#include "fd/suspect_list_detector.hpp"

namespace {

class SuspectNode final : public NodeApp {
 public:
  explicit SuspectNode(Env& env) : fd_(env) {}
  void start(bool) override { fd_.start(); }
  void on_message(ProcessId from, const Wire& msg) override {
    if (fd_.handles(msg.type)) fd_.on_message(from, msg);
  }
  SuspectListDetector& fd() { return fd_; }

 private:
  SuspectListDetector fd_;
};

struct SuspectCluster {
  explicit SuspectCluster(SimConfig cfg) : sim(cfg) {
    sim.set_node_factory(
        [](Env& env) { return std::make_unique<SuspectNode>(env); });
    sim.start_all();
  }
  SuspectListDetector& fd(ProcessId p) {
    return static_cast<SuspectNode*>(sim.node(p))->fd();
  }
  Simulation sim;
};

}  // namespace

TEST(SuspectFd, SuspectsCrashedAndRetrustsRecovered) {
  SuspectCluster c({.n = 3, .seed = 11});
  c.sim.run_for(seconds(1));
  EXPECT_TRUE(c.fd(0).suspects().empty());
  c.sim.crash(2);
  c.sim.run_for(seconds(2));
  EXPECT_EQ(c.fd(0).suspects(), std::vector<ProcessId>{2});
  c.sim.recover(2);
  c.sim.run_for(seconds(2));
  EXPECT_TRUE(c.fd(0).suspects().empty());
}

TEST(SuspectFd, BoundedOutputCountsEveryFlapAsWrong) {
  // Without epochs the detector cannot tell recovery from wrong suspicion:
  // a crash+recovery cycle inflates the wrong-suspicion count and grows
  // the timeout — the §3.5 trade-off made observable.
  SuspectCluster c({.n = 2, .seed = 12});
  c.sim.run_for(seconds(1));
  c.sim.crash(1);
  c.sim.run_for(seconds(1));
  c.sim.recover(1);
  c.sim.run_for(seconds(1));
  EXPECT_GE(c.fd(0).wrong_suspicions(), 1u);
}

TEST(SuspectFd, PerformsZeroLogOperations) {
  SuspectCluster c({.n = 2, .seed = 13});
  c.sim.run_for(seconds(2));
  c.sim.crash(1);
  c.sim.recover(1);
  c.sim.run_for(seconds(1));
  auto* mem = dynamic_cast<MemStableStorage*>(&c.sim.host(1).raw_storage());
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->scope_stats("fd").put_ops, 0u);
}

TEST(SuspectFd, LeaderIsSmallestNonSuspected) {
  SuspectCluster c({.n = 3, .seed = 14});
  c.sim.run_for(seconds(1));
  EXPECT_EQ(c.fd(2).leader(), 0u);
  c.sim.crash(0);
  c.sim.run_for(seconds(2));
  EXPECT_EQ(c.fd(2).leader(), 1u);
}

TEST(SuspectFd, FactoryBuildsBothKinds) {
  SuspectCluster c({.n = 1, .seed = 15});
  // Compile/link-level check of the factory with both kinds.
  struct Holder final : NodeApp {
    explicit Holder(Env& env)
        : a(make_failure_detector(FdKind::kEpoch, env)),
          b(make_failure_detector(FdKind::kSuspectList, env)) {}
    void start(bool) override {}
    void on_message(ProcessId, const Wire&) override {}
    std::unique_ptr<FailureDetector> a, b;
  };
  sim::Simulation sim({.n = 1, .seed = 15});
  sim.set_node_factory([](Env& env) { return std::make_unique<Holder>(env); });
  sim.start_all();
  auto* h = static_cast<Holder*>(sim.node(0));
  EXPECT_NE(h->a, nullptr);
  EXPECT_NE(h->b, nullptr);
  EXPECT_STREQ(to_string(FdKind::kEpoch), "epoch");
  EXPECT_STREQ(to_string(FdKind::kSuspectList), "suspect-list");
}
