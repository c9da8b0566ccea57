#include "net/udp_env.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/check.hpp"
#include "common/codec.hpp"

namespace abcast::net {
namespace {

/// [u32 sender pid][Wire] with the payload at its limit: the largest UDP
/// payload IPv4 carries. A bigger frame would fail inside sendmmsg, taking
/// the datagrams queued behind it down too.
constexpr std::size_t kMaxFrame = 4 + kWireHeaderBytes + kUdpMaxDatagramBytes;

/// Datagrams per sendmmsg()/recvmmsg() call when batching is on; the
/// receive ring holds this many buffers.
constexpr std::uint32_t kBatch = 16;

/// A non-blocking UDP socket bound to an ephemeral loopback port.
int bind_loopback_socket(std::uint16_t* port) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("bind() failed on a loopback port");
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

UdpHost::UdpHost(UdpConfig config, Clock::time_point epoch)
    : rt::EventLoop(config.self,
                    static_cast<std::uint32_t>(config.peers.size()),
                    config.seed * 7919 + config.self,
                    config.storage_factory
                        ? config.storage_factory(config.self)
                        : std::make_unique<MemStableStorage>(),
                    epoch),
      config_(std::move(config)) {
  ABCAST_CHECK(config_.self < config_.peers.size());
  ABCAST_CHECK(config_.prebound_fd >= 0);

  // Resolve peers once; index = pid.
  for (const auto& peer : config_.peers) {
    std::uint32_t ip = 0;
    if (::inet_pton(AF_INET, peer.host.c_str(), &ip) != 1) {
      throw std::runtime_error("bad peer address: " + peer.host);
    }
    peer_addrs_.emplace_back(ip, peer.port);
  }

  // Unbatched is the same engine with batches of one.
  const std::uint32_t batch = config_.batch.enabled ? kBatch : 1;
  recv_ring_.assign(batch, Bytes(kMaxFrame));
  recv_hdrs_.resize(batch);
  recv_iovs_.resize(batch);
  recv_addrs_.resize(batch);
  send_hdrs_.resize(batch);
  send_iovs_.resize(batch);
  send_addrs_.resize(batch);

  if (config_.registry != nullptr) {
    const obs::Labels labels{{"node", std::to_string(config_.self)}};
    metrics_group_ = config_.registry->group();
    metrics_group_.bind("net_send_syscalls", labels, &metrics_.send_syscalls);
    metrics_group_.bind("net_send_datagrams", labels,
                        &metrics_.send_datagrams);
    metrics_group_.bind("net_send_failures", labels, &metrics_.send_failures);
    metrics_group_.bind("net_recv_syscalls", labels, &metrics_.recv_syscalls);
    metrics_group_.bind("net_recv_datagrams", labels,
                        &metrics_.recv_datagrams);
    metrics_group_.bind("net_recv_errors", labels, &metrics_.recv_errors);
  }

  if (config_.trace_capacity > 0) {
    recorder_ = std::make_unique<obs::TraceRecorder>(config_.self,
                                                     config_.trace_capacity);
    recorder_->set_clock([this] { return now(); });
    tracing_storage_ = std::make_unique<TracingStorage>(
        EventLoop::storage(), *recorder_, [this] { return now(); });
  }

  fd_ = config_.prebound_fd;
  start_loop(fd_);
}

UdpHost::~UdpHost() {
  shutdown();  // the loop stops before any transport member dies
  ::close(fd_);
}

Bytes UdpHost::make_frame(const Wire& msg) const {
  BufWriter w;
  w.u32(config_.self);  // frame: sender pid + wire
  msg.encode(w);
  return std::move(w).take();
}

void UdpHost::fill_dest(ProcessId to, sockaddr_in* addr) const {
  std::memset(addr, 0, sizeof *addr);
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = peer_addrs_[to].first;
  addr->sin_port = htons(peer_addrs_[to].second);
}

void UdpHost::queue_frame(ProcessId to, const SharedBytes& frame) {
  if (frame.size() > kMaxFrame) {
    metrics_.send_failures += 1;  // UDP cannot carry it; drop (unreliable)
    return;
  }
  // chance(0) returns before drawing: without injection, two compares.
  if (rng().chance(config_.drop_prob)) return;
  send_queue_.push_back(PendingSend{to, frame});
  if (rng().chance(config_.dup_prob)) {
    send_queue_.push_back(PendingSend{to, frame});
  }
}

void UdpHost::queue_self(const Wire& msg) {
  // Held to the datagram limit like any send, though it is never framed.
  if (msg.payload.size() > max_datagram_bytes()) {
    metrics_.send_failures += 1;
    return;
  }
  send_to_self(msg);
}

void UdpHost::send(ProcessId to, const Wire& msg) {
  ABCAST_CHECK(to < peer_addrs_.size());
  if (to == self()) {
    queue_self(msg);
  } else {
    queue_frame(to, SharedBytes(make_frame(msg)));
  }
}

void UdpHost::multisend(const Wire& msg) {
  // One encode, one refcounted frame, a queue entry per peer — and
  // (batching permitting) one sendmmsg for the lot at the barrier.
  queue_self(msg);
  const SharedBytes frame(make_frame(msg));
  for (ProcessId to = 0; to < group_size(); ++to) {
    if (to != self()) queue_frame(to, frame);
  }
}

void UdpHost::release_sends() {
  const std::size_t max_batch = send_hdrs_.size();
  std::size_t done = 0;
  while (done < send_queue_.size()) {
    const std::size_t batch = std::min(max_batch, send_queue_.size() - done);
    for (std::size_t i = 0; i < batch; ++i) {
      const PendingSend& p = send_queue_[done + i];
      const Bytes& frame = p.frame.get();
      send_iovs_[i].iov_base = const_cast<std::uint8_t*>(frame.data());
      send_iovs_[i].iov_len = frame.size();
      fill_dest(p.to, &send_addrs_[i]);
      std::memset(&send_hdrs_[i], 0, sizeof send_hdrs_[i]);
      send_hdrs_[i].msg_hdr.msg_name = &send_addrs_[i];
      send_hdrs_[i].msg_hdr.msg_namelen = sizeof send_addrs_[i];
      send_hdrs_[i].msg_hdr.msg_iov = &send_iovs_[i];
      send_hdrs_[i].msg_hdr.msg_iovlen = 1;
    }
    const int sent = ::sendmmsg(fd_, send_hdrs_.data(),
                                static_cast<unsigned>(batch), 0);
    metrics_.send_syscalls += 1;
    if (sent < 0) {
      if (errno == EINTR) continue;
      // EAGAIN / hard error: drop the rest of the queue — lost datagrams,
      // which UDP permits and the protocol's retransmission machinery
      // already tolerates.
      metrics_.send_failures += send_queue_.size() - done;
      break;
    }
    metrics_.send_datagrams += static_cast<std::uint64_t>(sent);
    done += static_cast<std::size_t>(sent);
  }
  send_queue_.clear();
}

void UdpHost::handle_datagram(const std::uint8_t* data, std::size_t size) {
  try {
    BufReader r(data, size);
    const ProcessId from = r.u32();
    const Wire wire = Wire::decode(r);
    r.expect_done();
    if (from >= config_.peers.size()) return;
    deliver(from, wire);
  } catch (const CodecError&) {
    // Malformed datagram (stray traffic): drop, as UDP semantics allow.
  }
}

void UdpHost::drain_input() {
  const auto batch = static_cast<unsigned>(recv_hdrs_.size());
  for (;;) {
    for (unsigned i = 0; i < batch; ++i) {
      recv_iovs_[i].iov_base = recv_ring_[i].data();
      recv_iovs_[i].iov_len = recv_ring_[i].size();
      std::memset(&recv_hdrs_[i], 0, sizeof recv_hdrs_[i]);
      recv_hdrs_[i].msg_hdr.msg_name = &recv_addrs_[i];
      recv_hdrs_[i].msg_hdr.msg_namelen = sizeof recv_addrs_[i];
      recv_hdrs_[i].msg_hdr.msg_iov = &recv_iovs_[i];
      recv_hdrs_[i].msg_hdr.msg_iovlen = 1;
    }
    const int n = ::recvmmsg(fd_, recv_hdrs_.data(), batch, 0, nullptr);
    metrics_.recv_syscalls += 1;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) metrics_.recv_errors += 1;
      return;  // would-block: socket drained; real errors are counted
    }
    metrics_.recv_datagrams += static_cast<std::uint64_t>(n);
    for (int i = 0; i < n; ++i) {
      handle_datagram(recv_ring_[static_cast<std::size_t>(i)].data(),
                      recv_hdrs_[static_cast<std::size_t>(i)].msg_len);
    }
    if (static_cast<unsigned>(n) < batch) return;  // socket drained
  }
}

std::vector<std::unique_ptr<UdpHost>> make_local_udp_cluster(std::uint32_t n,
                                                             UdpConfig proto) {
  ABCAST_CHECK(n >= 1);
  std::vector<int> fds;
  std::vector<std::unique_ptr<UdpHost>> hosts;
  hosts.reserve(n);  // push_back cannot throw once a host owns its fd
  proto.peers.clear();
  try {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint16_t port = 0;
      fds.push_back(bind_loopback_socket(&port));
      proto.peers.push_back(UdpPeer{"127.0.0.1", port});
    }
    const auto epoch = rt::EventLoop::Clock::now();
    for (std::uint32_t i = 0; i < n; ++i) {
      proto.self = i;
      proto.prebound_fd = fds[i];
      hosts.push_back(std::make_unique<UdpHost>(proto, epoch));
    }
  } catch (...) {
    // The built hosts close their own sockets as `hosts` dies.
    for (std::size_t i = hosts.size(); i < fds.size(); ++i) ::close(fds[i]);
    throw;
  }
  return hosts;
}

std::vector<std::unique_ptr<UdpHost>> make_local_udp_cluster(
    std::uint32_t n, std::uint64_t seed, const UdpBatchConfig& batch,
    obs::MetricsRegistry* registry,
    std::function<std::unique_ptr<StableStorage>()> storage_factory) {
  UdpConfig proto{.seed = seed, .batch = batch, .registry = registry};
  if (storage_factory) {
    proto.storage_factory = [f = std::move(storage_factory)](ProcessId) {
      return f();
    };
  }
  return make_local_udp_cluster(n, std::move(proto));
}

// ------------------------------------------------------------- UdpCluster

UdpCluster::UdpCluster(std::uint32_t n, UdpConfig proto) {
  proto.registry = &registry_;
  hosts_ = make_local_udp_cluster(n, std::move(proto));
}

UdpCluster::~UdpCluster() {
  // Every loop stops before any socket closes: a port closed while its
  // peers still send to it could meanwhile be bound by another process.
  for (auto& h : hosts_) h->shutdown();
}

UdpHost& UdpCluster::host(ProcessId p) {
  ABCAST_CHECK(p < hosts_.size());
  return *hosts_[p];
}

void UdpCluster::start_all() {
  for (ProcessId p = 0; p < n(); ++p) start(p);
}

void UdpCluster::start(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  host(p).start_node(factory_, /*recovering=*/false);
}

void UdpCluster::recover(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  host(p).start_node(factory_, /*recovering=*/true);
}

bool UdpCluster::wait_for(const std::function<bool()>& pred,
                          Duration timeout) const {
  const auto deadline =
      rt::EventLoop::Clock::now() + std::chrono::nanoseconds(timeout);
  while (rt::EventLoop::Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

}  // namespace abcast::net
