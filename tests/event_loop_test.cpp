// Contracts of the real-time host's event loop (net/udp_env.hpp): the
// barrier, run with UDP batching off (batches of one) and on, and the
// live-timer table.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "net/udp_env.hpp"
#include "storage/mem_storage.hpp"

using namespace abcast;

namespace {

/// Counts the puts and erases issued since the last flush(): what a
/// deferred-sync backend would still lose to a crash.
class CountingStorage final : public StableStorage {
 public:
  explicit CountingStorage(std::atomic<int>& unflushed)
      : unflushed_(unflushed) {}

  void put(std::string_view key, const Bytes& value) override {
    inner_.put(key, value);
    unflushed_ += 1;
  }
  std::optional<Bytes> get(std::string_view key) override {
    return inner_.get(key);
  }
  void erase(std::string_view key) override {
    inner_.erase(key);
    unflushed_ += 1;
  }
  void flush() override { unflushed_ = 0; }
  std::vector<std::string> keys_with_prefix(std::string_view prefix) override {
    return inner_.keys_with_prefix(prefix);
  }
  std::uint64_t footprint_bytes() override { return inner_.footprint_bytes(); }
  const StorageStats& stats() const override { return inner_.stats(); }

 private:
  MemStableStorage inner_;
  std::atomic<int>& unflushed_;
};

/// On every datagram, records how many of the sender's log writes were
/// still unflushed at that instant.
struct DurabilityProbe final : NodeApp {
  DurabilityProbe(std::atomic<int>& sender_unflushed, std::atomic<int>& seen)
      : sender_unflushed_(sender_unflushed), seen_(seen) {}
  void start(bool) override {}
  void on_message(ProcessId, const Wire&) override {
    seen_.store(sender_unflushed_.load());
  }
  std::atomic<int>& sender_unflushed_;
  std::atomic<int>& seen_;
};

/// Does nothing: a stand-in protocol stack for loop-level tests.
struct IdleApp final : NodeApp {
  void start(bool) override {}
  void on_message(ProcessId, const Wire&) override {}
};

/// The barrier's contracts, with UDP batching off (batches of one) and on.
class HostLoop : public ::testing::TestWithParam<bool> {
 protected:
  /// Host p logs into a CountingStorage over unflushed[p].
  template <std::size_t N>
  net::UdpConfig config(std::array<std::atomic<int>, N>& unflushed) const {
    return {.seed = 31,
            .storage_factory =
                [&unflushed](ProcessId p) {
                  return std::make_unique<CountingStorage>(unflushed[p]);
                },
            .batch = {.enabled = GetParam()}};
  }
};

INSTANTIATE_TEST_SUITE_P(Batching, HostLoop, ::testing::Bool());

}  // namespace

// Stable storage is all that survives a crash (§3), so a log write must be
// durable before any datagram that could reveal it leaves the process:
// StableStorage::flush() before the send, on every send path. Node 0 logs,
// sends to node 1 and then holds its loop for 100 ms inside the same
// handler; node 1 reads how many of node 0's writes were unflushed when the
// datagram arrived. A host that transmits from inside send() lets it arrive
// during the hold, before any barrier, and reads 1.
TEST_P(HostLoop, StorageFlushedBeforeEverySend) {
  std::array<std::atomic<int>, 2> unflushed{};
  std::atomic<int> seen{-1};
  net::UdpCluster c(2, config(unflushed));
  c.set_node_factory([&unflushed, &seen](Env&) {
    return std::make_unique<DurabilityProbe>(unflushed[0], seen);
  });
  c.start_all();

  auto& sender = c.host(0);
  ASSERT_TRUE(sender.call([&sender] {
    sender.storage().put("probe", Bytes{1});
    sender.send(1, Wire{MsgType::kAbGossip, Bytes{2}});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }));
  c.wait_for([&seen] { return seen.load() >= 0; }, seconds(10));
  EXPECT_EQ(seen.load(), 0);
}

// A message to self obeys the same barrier without leaving the process:
// node 0 logs, sends to itself and holds its loop; it must see its own
// message only after the write is flushed, never inside the send.
TEST_P(HostLoop, SelfSendArrivesAfterTheBarrier) {
  std::array<std::atomic<int>, 1> unflushed{};
  std::atomic<int> seen{-1};
  net::UdpCluster c(1, config(unflushed));
  c.set_node_factory([&unflushed, &seen](Env&) {
    return std::make_unique<DurabilityProbe>(unflushed[0], seen);
  });
  c.start_all();

  auto& host = c.host(0);
  ASSERT_TRUE(host.call([&host, &seen] {
    host.storage().put("probe", Bytes{1});
    host.send(0, Wire{MsgType::kAbGossip, Bytes{2}});
    host.multisend(Wire{MsgType::kAbGossip, Bytes{3}});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(seen.load(), -1);  // not delivered inside the pass
  }));
  c.wait_for([&seen] { return seen.load() >= 0; }, seconds(10));
  EXPECT_EQ(seen.load(), 0);
}

// Regression test for the cancelled-timer leak: a grow-only list of
// cancelled ids, pruned only when the timer it named popped, kept a
// tombstone forever for every cancel-after-fire (the common pattern: a
// protocol cancels its retry timer from the handler that timer triggered)
// and made every pop an O(tombstones) scan. The live-timer table keeps the
// bookkeeping bounded by OUTSTANDING timers.
TEST(Udp, TimerBookkeepingBoundedUnderCancelAfterFireLoop) {
  net::UdpCluster c(1, {.seed = 31});
  c.set_node_factory([](Env&) { return std::make_unique<IdleApp>(); });
  c.start_all();
  auto& h = c.host(0);
  for (int i = 0; i < 500; ++i) {
    TimerId fired_id = 0;
    std::atomic<bool> fired{false};
    h.call([&] {
      fired_id = h.schedule_after(0, [&fired] { fired.store(true); });
    });
    while (!fired.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    h.call([&] { h.cancel_timer(fired_id); });  // cancel AFTER it fired

    // And the cancel-before-fire side: schedule far out, cancel at once.
    h.call([&] {
      const TimerId id = h.schedule_after(seconds(3600), [] {});
      h.cancel_timer(id);
    });
  }
  // 1000 cancels later, nothing may linger (IdleApp schedules no timers of
  // its own). The grow-only list held ~500 tombstones here.
  EXPECT_EQ(h.pending_timer_entries(), 0u);
}

// A crash ends every timer the crashed stack scheduled, even one whose
// closure outlives the stack: crash_node() empties the live-timer table and
// ids are never reused. Each incarnation schedules a 200 ms timer on a
// counter of its own that outlives every stack; the host crashes and
// recovers at once, so the first timer is still pending when the second
// is scheduled. Tasks run in due order, so once the second has fired the
// first is past its due time.
TEST(Udp, TimersDieWithTheirIncarnation) {
  std::array<std::atomic<int>, 2> fired{};  // by incarnation
  struct OneTimer final : NodeApp {
    OneTimer(Env& env, std::array<std::atomic<int>, 2>& fired)
        : env_(env), fired_(fired) {}
    void start(bool recovering) override {
      env_.schedule_after(millis(200), [&count = fired_[recovering ? 1 : 0]] {
        count += 1;
      });
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
    std::array<std::atomic<int>, 2>& fired_;
  };
  net::UdpCluster c(1, {.seed = 6});
  c.set_node_factory(
      [&fired](Env& env) { return std::make_unique<OneTimer>(env, fired); });
  c.start(0);
  c.crash(0);
  c.recover(0);
  ASSERT_TRUE(c.wait_for([&fired] { return fired[1].load() == 1; },
                         seconds(5)));
  EXPECT_EQ(fired[0].load(), 0);
}
