// Real network transport: the Env interface over UDP sockets.
//
// The paper's transport (§3.1) is an unreliable, duplicating, non-FIFO
// datagram service with fair-lossy channels — which is exactly what UDP
// is. This host runs one process of the group over a real socket: every
// protocol repair mechanism (gossip, consensus retries, decision offers
// and pulls, fill ticks) that the simulator exercised against injected
// loss here covers genuine kernel-buffer drops and datagram loss.
//
// UdpHost is a transport on the shared rt::EventLoop, which owns the loop
// thread, the timers, the node lifecycle and the per-pass barrier
// (storage().flush() before any queued datagram is released). The socket is
// the loop's input fd. Datagrams are framed as [u32 sender pid][Wire];
// anything malformed or from an unknown peer is dropped (CodecError can
// never propagate past the loop — unreliable transport semantics). A
// message to self is neither framed nor sent: the loop delivers it after
// the barrier (EventLoop::send_to_self).
//
// I/O (DESIGN.md §16.2): send/multisend queue refcounted frames — a
// multisend encodes once — and the barrier releases the queue with
// sendmmsg(), each mmsghdr carrying its own destination. Inbound,
// recvmmsg() drains into a preallocated buffer ring feeding the decode
// path. UdpBatchConfig sets whether one syscall may carry many datagrams.
//
// Limitations (inherent to UDP over IPv4): a datagram carries at most 65507
// bytes, so a Wire payload at most max_datagram_bytes() = 65497. A larger
// one is dropped when it is queued and counted in send_failures; the rest
// of the pass still goes out. The protocol sizes every datagram to the
// limit (proposals, full-set gossip, digest deltas and catch-up state), and
// AtomicBroadcast::broadcast refuses a payload that could not ride alone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/relaxed_counter.hpp"
#include "env/env.hpp"
#include "obs/metrics.hpp"
#include "rt/event_loop.hpp"
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
  /// Stable storage for this host; defaults to MemStableStorage.
  std::function<std::unique_ptr<StableStorage>()> storage_factory;
  UdpBatchConfig batch;
  /// An already-bound UDP socket to adopt instead of binding
  /// peers[self] (ownership transfers; the host closes it). This is how
  /// make_local_udp_cluster avoids the classic reserve/release/rebind port
  /// race: every socket is bound exactly once, before any host starts.
  int prebound_fd = -1;
  /// Optional registry for net_* counter bindings; must outlive the host.
  obs::MetricsRegistry* registry = nullptr;
};

class UdpHost final : public rt::EventLoop {
 public:
  /// Binds a socket to peers[config.self] (port 0 = ephemeral; see
  /// local_port()) — or adopts config.prebound_fd — and starts the event
  /// loop. Throws std::runtime_error on socket errors.
  explicit UdpHost(UdpConfig config);
  ~UdpHost() override;

  // Env (called from the event-loop thread only)
  void send(ProcessId to, const Wire& msg) override;
  /// Frames the datagram once ([u32 self][Wire]) and queues it for every
  /// other peer, the entries sharing one refcounted frame; the copy to self
  /// goes to the loop.
  void multisend(const Wire& msg) override;
  obs::MetricsRegistry* metrics_registry() override {
    return config_.registry;
  }

  /// The actually bound port (useful when configured with port 0).
  std::uint16_t local_port() const { return local_port_; }

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

  /// Hands the queue to the kernel in sendmmsg chunks.
  void release_sends() override;
  void drop_sends() override { send_queue_.clear(); }
  /// Drains the socket in recvmmsg chunks.
  void drain_input() override;
  void handle_datagram(const std::uint8_t* data, std::size_t size);
  /// Hands a message to self to the loop, unless it is oversize.
  void queue_self(const Wire& msg);
  Bytes make_frame(const Wire& msg) const;
  void queue_frame(ProcessId to, const SharedBytes& frame);
  void fill_dest(ProcessId to, sockaddr_in* addr) const;

  UdpConfig config_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint16_t>> peer_addrs_;

  NetMetrics metrics_;
  obs::MetricsGroup metrics_group_;

  // Event-loop thread only (Env serializes callbacks). The header arrays
  // are sized to the batch, so their sizes are the per-syscall limits.
  std::vector<PendingSend> send_queue_;
  std::vector<Bytes> recv_ring_;  // preallocated datagram buffers
  std::vector<mmsghdr> send_hdrs_, recv_hdrs_;
  std::vector<iovec> send_iovs_, recv_iovs_;
  std::vector<sockaddr_in> send_addrs_, recv_addrs_;
};

/// Convenience for tests and demos: builds n hosts on ephemeral localhost
/// ports and wires their peer tables together. All sockets are bound before
/// any host is constructed (via UdpConfig::prebound_fd), so there is no
/// window where a reserved port could be lost to another process.
std::vector<std::unique_ptr<UdpHost>> make_local_udp_cluster(
    std::uint32_t n, std::uint64_t seed = 1, const UdpBatchConfig& batch = {},
    obs::MetricsRegistry* registry = nullptr,
    std::function<std::unique_ptr<StableStorage>()> storage_factory = {});

}  // namespace abcast::net
