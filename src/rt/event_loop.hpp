// The real-time event loop under net::UdpHost, the real-time host.
//
// One thread per host runs every protocol callback (start, on_message,
// timers, call() bodies), preserving the single-threaded execution model
// the stacks assume. Each pass of the loop runs, in this order:
//
//   1. the barrier: storage().flush(), THEN release_sends(), THEN the
//      messages the node sent to itself move to the ready list. Whatever
//      the previous pass logged is durable before any message that could
//      reveal it leaves the process or reaches the node (§3.2: stable
//      storage is all that survives a crash), so a deferred-sync backend
//      (SegmentedLogStorage in SyncMode::kDeferred) is externally
//      indistinguishable from a synchronous one. Every send path queues;
//      none bypasses this;
//   2. the wait: poll() on the transport's input fd and a self-pipe,
//      timing out at the earliest due task (rounded up to whole
//      milliseconds), or at once while the ready list is non-empty;
//   3. drain_input(): the transport hands arrived datagrams to deliver();
//   4. the ready list, handed to the node: a message to self never
//      reaches the transport (send_to_self);
//   5. every due task, in (due, seq) order.
//
// Timers are incarnation-gated: crash_node() bumps the incarnation, so no
// timer of a dead incarnation fires. The live-timer table holds the ids
// that are scheduled and neither fired nor cancelled, so it stays bounded
// by outstanding timers whatever the cancel/fire interleaving.
//
// A transport derives from EventLoop, implements send() by queueing (a
// message to self goes to send_to_self()) and the release_sends()/
// drop_sends()/drain_input() hooks, calls start_loop() as the last
// statement of its constructor and shutdown() as the first of its
// destructor: the loop thread only ever sees a fully built transport.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "env/env.hpp"

namespace abcast::rt {

class EventLoop : public Env {
 public:
  using Clock = std::chrono::steady_clock;

  /// `epoch` is time zero for now(); the hosts of one cluster share it so
  /// their traces merge on one time base. Throws std::runtime_error when the
  /// wake pipe cannot be created. The loop thread starts in start_loop().
  EventLoop(ProcessId self, std::uint32_t group_size, std::uint64_t rng_seed,
            std::unique_ptr<StableStorage> storage, Clock::time_point epoch);
  ~EventLoop() override;

  // Env (loop thread only, except now())
  ProcessId self() const override { return self_; }
  std::uint32_t group_size() const override { return group_size_; }
  TimePoint now() const override;
  TimerId schedule_after(Duration delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  StableStorage& storage() override { return *storage_; }
  Rng& rng() override { return rng_; }

  // ---- lifecycle (external threads) --------------------------------------
  /// Constructs the protocol stack via `factory` (passing this host as its
  /// Env) and starts it. A recovering start is bracketed by kRecoverBegin /
  /// kRecoverEnd when tracer() is set.
  void start_node(const NodeFactory& factory, bool recovering);
  /// Crash: destroys the stack (volatile state dies), discards the sends
  /// and messages to self not yet delivered and makes every pending timer
  /// stale. Records kCrash when tracer() is set. Input arriving while down
  /// is dropped.
  void crash_node();
  /// Runs `fn` on the loop thread and waits for it; returns false (without
  /// running it) if the node is down. A RequestRefused thrown by `fn` is
  /// rethrown here and the loop runs on; any other exception ends the
  /// process.
  bool call(const std::function<void()>& fn);
  /// Stops the loop and joins its thread (idempotent). A node that is up
  /// stays alive, for inspection, until the host is destroyed.
  void shutdown();

  bool is_up() const { return up_.load(); }
  /// The hosted protocol stack. Loop thread only: use it inside a call()
  /// body, where it is non-null. Cast to the factory's concrete NodeApp.
  NodeApp* node_unsafe() { return node_.get(); }
  /// Timer-table entries alive (scheduled, neither fired nor cancelled).
  std::size_t pending_timer_entries() const;

 protected:
  /// Starts the loop thread, polling `input_fd` for input.
  void start_loop(int input_fd);
  /// Hands `msg` to the node if it is up. Loop thread only.
  void deliver(ProcessId from, const Wire& msg);
  /// Queues `msg` for this host's own node. The next barrier releases it
  /// with the sends, and that pass delivers it after a poll that does not
  /// wait. Loop thread only.
  void send_to_self(const Wire& msg) { self_sent_.push_back(msg); }

  /// The transport's half of the barrier: transmit everything queued since
  /// the previous pass. Runs after storage().flush().
  virtual void release_sends() = 0;
  /// Discards queued sends: they die with the crashed process.
  virtual void drop_sends() = 0;
  /// Reads what the input fd has ready and hands it to deliver().
  virtual void drain_input() = 0;

 private:
  struct Task {
    TimePoint due = 0;
    std::uint64_t seq = 0;
    std::uint64_t incarnation = 0;  // 0 = not a timer
    std::function<void()> fn;

    bool operator>(const Task& o) const {
      return std::tie(due, seq) > std::tie(o.due, o.seq);
    }
  };

  void run();
  /// Queues `fn` at `due` (a timer when `timer`) and wakes the loop.
  std::uint64_t push(TimePoint due, bool timer, std::function<void()> fn);
  /// Runs `fn` on the loop thread and blocks until it has run; forwards a
  /// RequestRefused it throws.
  template <typename Fn>
  void run_on_loop(Fn&& fn);
  void wake();

  const ProcessId self_;
  const std::uint32_t group_size_;
  const Clock::time_point epoch_;
  Rng rng_;
  std::unique_ptr<StableStorage> storage_;
  int wake_fds_[2] = {-1, -1};  // self-pipe that interrupts poll()
  int input_fd_ = -1;

  mutable std::mutex mu_;
  std::priority_queue<Task, std::vector<Task>, std::greater<>> tasks_;
  std::uint64_t next_seq_ = 1;
  // Bumped on crash so pending timers go stale. Starts at 1: incarnation 0
  // marks a task that is not a timer.
  std::uint64_t incarnation_ = 1;
  std::unordered_set<std::uint64_t> live_timers_;
  bool stop_ = false;

  // Loop thread only: messages to self sent since the last barrier, and
  // those it released, which the pass delivers after its poll.
  std::vector<Wire> self_sent_;
  std::vector<Wire> self_ready_;

  std::atomic<bool> up_{false};
  std::unique_ptr<NodeApp> node_;  // loop thread only; dies before storage_
  std::thread thread_;
};

}  // namespace abcast::rt
