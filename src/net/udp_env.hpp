// The real-time host: the Env interface over UDP sockets.
//
// The paper's transport (§3.1) is an unreliable, duplicating, non-FIFO
// datagram service with fair-lossy channels — which is exactly what UDP
// is. This host runs one process of the group over a real socket: every
// protocol repair mechanism (gossip, consensus retries, decision offers
// and pulls, fill ticks) that the simulator exercised against injected
// loss here covers genuine kernel-buffer drops and datagram loss.
//
// One thread per host runs every protocol callback (start, on_message,
// timers, call() bodies), preserving the single-threaded execution model
// the stacks assume. Each pass of the loop runs, in this order:
//
//   1. the barrier: storage().flush(), THEN the queued datagrams leave,
//      THEN the messages the node sent to itself move to the ready list.
//      Whatever the previous pass logged is durable before any message
//      that could reveal it leaves the process or reaches the node (§3.2:
//      stable storage is all that survives a crash), so a deferred-sync
//      backend (SegmentedLogStorage in SyncMode::kDeferred) is externally
//      indistinguishable from a synchronous one. Every send path queues;
//      none bypasses this;
//   2. the wait: poll() on the socket and a self-pipe, timing out at the
//      earliest due task (rounded up to whole milliseconds), or at once
//      while the ready list is non-empty;
//   3. the socket, drained: each datagram goes to the node;
//   4. the ready list, handed to the node: a message to self is neither
//      framed nor sent;
//   5. every due task, in (due, seq) order.
//
// A timer fires only if its id is still in the live-timer table, which
// holds the ids scheduled and neither fired nor cancelled: it stays bounded
// by outstanding timers whatever the cancel/fire interleaving. crash_node()
// empties it and ids are never reused, so no timer of a crashed
// incarnation fires.
//
// Datagrams are framed as [u32 sender pid][Wire]; anything malformed or
// from an unknown peer is dropped (CodecError can never propagate past the
// loop — unreliable transport semantics).
//
// I/O (DESIGN.md §16.2): send/multisend queue refcounted frames — a
// multisend encodes once — and the barrier releases the queue with
// sendmmsg(), each mmsghdr carrying its own destination. Inbound,
// recvmmsg() drains into a preallocated buffer ring feeding the decode
// path. UdpBatchConfig sets whether one syscall may carry many datagrams.
//
// Injected faults and tracing (UdpConfig): drop_prob and dup_prob drop or
// duplicate each datagram bound for a peer as it is queued, drawn from the
// host's seeded rng; a message to self is never touched. trace_capacity > 0
// gives the host a TraceRecorder that outlives every crash, exposed as
// tracer(), and wraps its storage in a TracingStorage.
//
// Limitations (inherent to UDP over IPv4): a datagram carries at most 65507
// bytes, so a Wire payload at most max_datagram_bytes() = 65497. A larger
// one is dropped when it is queued and counted in send_failures; the rest
// of the pass still goes out. The protocol sizes every datagram to the
// limit (proposals, full-set gossip, digest deltas and catch-up state), and
// AtomicBroadcast::broadcast refuses a payload that could not ride alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/relaxed_counter.hpp"
#include "common/rng.hpp"
#include "env/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/mem_storage.hpp"

// Forward-declared here so the header stays free of <sys/socket.h>; defined
// in the .cpp against the real kernel structs.
struct mmsghdr;
struct iovec;
struct sockaddr_in;

namespace abcast::net {

/// A peer endpoint (IPv4). Index in the peer table = ProcessId.
struct UdpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Syscall batching. Off by default, which means batches of one: the same
/// sendmmsg/recvmmsg engine moving one datagram per syscall. On, one
/// syscall moves up to 16 datagrams each way.
struct UdpBatchConfig {
  bool enabled = false;
};

/// Transport-level counters, bound into the metrics registry (when one is
/// configured) under net_* names — see EXPERIMENTS.md metrics index. The
/// syscall/datagram pairs are what the batching bench reads: batching on
/// should show send_syscalls << send_datagrams.
struct NetMetrics {
  RelaxedU64 send_syscalls;   // sendmmsg calls issued
  RelaxedU64 send_datagrams;  // datagrams handed to the kernel
  RelaxedU64 send_failures;   // oversized or kernel-rejected datagrams
  RelaxedU64 recv_syscalls;   // recvmmsg calls issued
  RelaxedU64 recv_datagrams;  // datagrams received
  RelaxedU64 recv_errors;     // receive-side errno other than would-block
};

struct UdpConfig {
  ProcessId self = 0;
  std::vector<UdpPeer> peers;
  std::uint64_t seed = 1;
  /// Stable storage of the host with the given process id; defaults to
  /// MemStableStorage, which survives crash_node() but not the host.
  std::function<std::unique_ptr<StableStorage>(ProcessId)> storage_factory;
  UdpBatchConfig batch;
  /// The bound, non-blocking socket the host adopts. Once the constructor
  /// returns, the host owns it and closes it when destroyed; a constructor
  /// that throws leaves it to the caller. make_local_udp_cluster binds every
  /// socket of a cluster before it constructs any host.
  int prebound_fd = -1;
  /// Optional registry for net_* counter bindings; must outlive the host.
  obs::MetricsRegistry* registry = nullptr;
  /// Injected loss: each datagram bound for a peer is dropped with
  /// probability drop_prob, and one that is kept is queued twice with
  /// probability dup_prob. Messages to self are never touched.
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  /// Protocol trace ring capacity (events); 0 disables tracing.
  std::size_t trace_capacity = 0;
};

class UdpHost final : public Env {
 public:
  using Clock = std::chrono::steady_clock;

  /// Adopts config.prebound_fd and starts the loop thread. `epoch` is time
  /// zero for now(): the hosts of one cluster share it, so their traces
  /// merge on one time base. Throws std::runtime_error on a bad peer
  /// address or when the wake pipe cannot be created; a constructor that
  /// throws closes every descriptor it opened.
  UdpHost(UdpConfig config, Clock::time_point epoch);
  ~UdpHost() override;

  // Env (loop thread only, except now() and tracer())
  ProcessId self() const override { return config_.self; }
  std::uint32_t group_size() const override {
    return static_cast<std::uint32_t>(config_.peers.size());
  }
  TimePoint now() const override;
  TimerId schedule_after(Duration delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  void send(ProcessId to, const Wire& msg) override;
  /// Frames the datagram once ([u32 self][Wire]) and queues it for every
  /// other peer, the entries sharing one refcounted frame; the copy to self
  /// goes to the loop.
  void multisend(const Wire& msg) override;
  StableStorage& storage() override {
    return tracing_storage_ ? *tracing_storage_ : *storage_;
  }
  Rng& rng() override { return rng_; }
  /// This host's protocol trace, or nullptr when trace_capacity == 0. It
  /// outlives every crash, and TraceRecorder is internally synchronized, so
  /// any thread may read it.
  obs::TraceRecorder* tracer() override { return recorder_.get(); }
  obs::MetricsRegistry* metrics_registry() override {
    return config_.registry;
  }

  // ---- lifecycle (external threads) --------------------------------------
  /// Constructs the protocol stack via `factory` (passing this host as its
  /// Env) and starts it. A recovering start is bracketed by kRecoverBegin /
  /// kRecoverEnd when tracer() is set.
  void start_node(const NodeFactory& factory, bool recovering);
  /// Crash: destroys the stack (volatile state dies), discards the sends
  /// and messages to self not yet delivered and empties the live-timer
  /// table. Records kCrash when tracer() is set. Input arriving while down
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

  /// The port of this host's socket.
  std::uint16_t local_port() const { return config_.peers[self()].port; }

  /// Datagrams that failed to send (e.g. oversized) — observability for
  /// the UDP size limitation.
  std::uint64_t send_failures() const {
    return metrics_.send_failures.load();
  }
  const NetMetrics& net_metrics() const { return metrics_; }

 private:
  /// One queued outbound datagram. The frame is refcounted: a multisend
  /// queues group_size() entries over a single encode.
  struct PendingSend {
    ProcessId to = 0;
    SharedBytes frame;
  };

  /// A timer, or a call()/lifecycle body (timer == false, never gated).
  struct Task {
    TimePoint due = 0;
    std::uint64_t seq = 0;
    bool timer = false;
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

  /// The barrier's transmit step: hands the queue to the kernel in
  /// sendmmsg chunks.
  void release_sends();
  /// Drains the socket in recvmmsg chunks.
  void drain_input();
  void handle_datagram(const std::uint8_t* data, std::size_t size);
  /// Queues a message to self for the next barrier, unless it is oversize.
  void queue_self(const Wire& msg);
  Bytes make_frame(const Wire& msg) const;
  /// Queues a frame for a peer, through the injected drop and duplication.
  void queue_frame(ProcessId to, const SharedBytes& frame);
  void fill_dest(ProcessId to, sockaddr_in* addr) const;

  UdpConfig config_;
  const Clock::time_point epoch_;
  Rng rng_;
  std::vector<std::pair<std::uint32_t, std::uint16_t>> peer_addrs_;
  int fd_ = -1;                 // the socket, adopted last in the constructor
  int wake_fds_[2] = {-1, -1};  // self-pipe that interrupts poll()

  NetMetrics metrics_;
  obs::MetricsGroup metrics_group_;
  std::unique_ptr<StableStorage> storage_;
  std::unique_ptr<obs::TraceRecorder> recorder_;     // outlives crashes
  std::unique_ptr<TracingStorage> tracing_storage_;  // wraps storage_

  mutable std::mutex mu_;
  std::priority_queue<Task, std::vector<Task>, std::greater<>> tasks_;
  std::uint64_t next_seq_ = 1;
  std::unordered_set<std::uint64_t> live_timers_;
  bool stop_ = false;

  // Loop thread only (Env serializes callbacks). Messages to self sent
  // since the last barrier, and those it released, which the pass delivers
  // after its poll. The header arrays are sized to the batch, so their
  // sizes are the per-syscall limits.
  std::vector<PendingSend> send_queue_;
  std::vector<Wire> self_sent_;
  std::vector<Wire> self_ready_;
  std::vector<Bytes> recv_ring_;  // preallocated datagram buffers
  std::vector<mmsghdr> send_hdrs_, recv_hdrs_;
  std::vector<iovec> send_iovs_, recv_iovs_;
  std::vector<sockaddr_in> send_addrs_, recv_addrs_;

  std::atomic<bool> up_{false};
  // Loop thread only. Declared after everything it may use, so it dies
  // before the storage, the trace recorder and the timer table.
  std::unique_ptr<NodeApp> node_;
  std::thread thread_;
};

/// Builds n hosts on ephemeral loopback ports from `proto`, whose self,
/// peers and prebound_fd it sets. Every socket is bound before any host is
/// constructed, so no port is ever released and rebound; if anything
/// throws, every socket no host adopted is closed.
std::vector<std::unique_ptr<UdpHost>> make_local_udp_cluster(std::uint32_t n,
                                                             UdpConfig proto);

/// The older form, kept only for e2ebench: `storage_factory` is called once
/// per host, in process-id order.
std::vector<std::unique_ptr<UdpHost>> make_local_udp_cluster(
    std::uint32_t n, std::uint64_t seed, const UdpBatchConfig& batch,
    obs::MetricsRegistry* registry,
    std::function<std::unique_ptr<StableStorage>()> storage_factory);

/// A loopback cluster (make_local_udp_cluster) run as one group: a node
/// factory, the lifecycle calls, and one MetricsRegistry outside every crash
/// boundary. What the threaded tests and the udp_cluster example drive.
class UdpCluster {
 public:
  /// `proto` configures every host; its registry is the cluster's.
  explicit UdpCluster(std::uint32_t n, UdpConfig proto = {});
  ~UdpCluster();

  void set_node_factory(NodeFactory factory) { factory_ = std::move(factory); }

  void start_all();
  void start(ProcessId p);
  void crash(ProcessId p) { host(p).crash_node(); }
  void recover(ProcessId p);

  /// Blocks the calling thread until `pred` (evaluated on the caller, so it
  /// must be thread-safe) holds or the wall-clock timeout expires.
  bool wait_for(const std::function<bool()>& pred, Duration timeout) const;

  UdpHost& host(ProcessId p);
  std::uint32_t n() const { return static_cast<std::uint32_t>(hosts_.size()); }
  /// Thread-safe; values accumulate across incarnations.
  obs::MetricsRegistry& metrics_registry() { return registry_; }

 private:
  obs::MetricsRegistry registry_;  // outlives the hosts bound to it
  NodeFactory factory_;
  std::vector<std::unique_ptr<UdpHost>> hosts_;
};

}  // namespace abcast::net
