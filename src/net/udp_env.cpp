#include "net/udp_env.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <iterator>
#include <stdexcept>

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
    : config_(std::move(config)),
      epoch_(epoch),
      rng_(config_.seed * 7919 + config_.self) {
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

  storage_ = config_.storage_factory ? config_.storage_factory(config_.self)
                                     : std::make_unique<MemStableStorage>();
  ABCAST_CHECK(storage_ != nullptr);
  if (config_.trace_capacity > 0) {
    recorder_ = std::make_unique<obs::TraceRecorder>(config_.self,
                                                     config_.trace_capacity);
    recorder_->set_clock([this] { return now(); });
    tracing_storage_ = std::make_unique<TracingStorage>(
        *storage_, *recorder_, [this] { return now(); });
  }

  // Both ends non-blocking: a full pipe already guarantees a wakeup, so a
  // failed write loses nothing and never stalls the writer.
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2() failed");
  }
  fd_ = config_.prebound_fd;
  try {
    thread_ = std::thread([this] { run(); });
  } catch (...) {
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    throw;  // the socket stays the caller's
  }
}

UdpHost::~UdpHost() {
  shutdown();  // the loop stops before any member dies
  ::close(fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void UdpHost::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void UdpHost::wake() {
  const char b = 1;
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &b, 1);
}

TimePoint UdpHost::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t UdpHost::push(TimePoint due, bool timer,
                            std::function<void()> fn) {
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
    if (timer) live_timers_.insert(seq);
    tasks_.push(Task{due, seq, timer, std::move(fn)});
  }
  wake();
  return seq;
}

TimerId UdpHost::schedule_after(Duration delay, std::function<void()> fn) {
  return push(now() + std::max<Duration>(delay, 0), /*timer=*/true,
              std::move(fn));
}

void UdpHost::cancel_timer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Erasing both cancels the timer and bounds the table: the id of a timer
  // that already fired (or died with its incarnation) is simply absent, so
  // cancel-after-fire leaves nothing behind.
  live_timers_.erase(id);
}

std::size_t UdpHost::pending_timer_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_timers_.size();
}

template <typename Fn>
void UdpHost::run_on_loop(Fn&& fn) {
  // From the loop thread this would wait on itself forever.
  ABCAST_CHECK(std::this_thread::get_id() != thread_.get_id());
  std::promise<void> done;
  push(now(), /*timer=*/false, [&fn, &done] {
    try {
      fn();
    } catch (const RequestRefused&) {
      // The caller's error, so the caller's to handle; the loop goes on.
      // Any other exception ends the process here (StorageIoError: the
      // log either completes or the process dies).
      done.set_exception(std::current_exception());
      return;
    }
    done.set_value();
  });
  done.get_future().get();
}

void UdpHost::start_node(const NodeFactory& factory, bool recovering) {
  run_on_loop([this, &factory, recovering] {
    ABCAST_CHECK_MSG(node_ == nullptr, "process already up");
    obs::TraceRecorder* rec = recovering ? tracer() : nullptr;
    if (rec) rec->record(obs::EventKind::kRecoverBegin, now());
    node_ = factory(*this);
    up_.store(true);
    node_->start(recovering);
    if (rec) rec->record(obs::EventKind::kRecoverEnd, now());
  });
}

void UdpHost::crash_node() {
  run_on_loop([this] {
    ABCAST_CHECK_MSG(node_ != nullptr, "process already down");
    up_.store(false);
    node_.reset();        // volatile state dies here
    send_queue_.clear();  // and so do the messages it had not delivered
    self_sent_.clear();
    self_ready_.clear();
    if (obs::TraceRecorder* rec = tracer()) {
      rec->record(obs::EventKind::kCrash, now());
    }
    std::lock_guard<std::mutex> lock(mu_);
    live_timers_.clear();  // ids are never reused: no pending timer fires
  });
}

bool UdpHost::call(const std::function<void()>& fn) {
  bool ran = false;
  run_on_loop([this, &fn, &ran] {
    if (node_ == nullptr) return;
    fn();
    ran = true;
  });
  return ran;
}

void UdpHost::run() {
  for (;;) {
    // The barrier: everything the previous pass logged becomes durable,
    // THEN everything it queued leaves, or is ready for this node. A
    // throwing flush follows the StorageIoError contract: the log either
    // completes or the process dies.
    storage().flush();
    release_sends();
    self_ready_.insert(self_ready_.end(),
                       std::make_move_iterator(self_sent_.begin()),
                       std::make_move_iterator(self_sent_.end()));
    self_sent_.clear();

    int timeout_ms = 1000;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      if (!self_ready_.empty()) {
        timeout_ms = 0;
      } else if (!tasks_.empty()) {
        const Duration wait = tasks_.top().due - now();
        timeout_ms = wait <= 0 ? 0 : static_cast<int>(wait / 1'000'000 + 1);
      }
    }

    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    if (::poll(fds, 2, timeout_ms) < 0) {
      if (errno == EINTR) continue;
      // revents are unspecified on failure: clear them so due tasks still
      // run, rather than reading garbage.
      fds[0].revents = 0;
      fds[1].revents = 0;
    }
    if (fds[1].revents & POLLIN) {
      char sink[64];
      while (::read(wake_fds_[0], sink, sizeof sink) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) drain_input();
    for (const Wire& msg : self_ready_) {
      if (node_ != nullptr) node_->on_message(self(), msg);
    }
    self_ready_.clear();

    for (;;) {
      Task task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        if (tasks_.empty() || tasks_.top().due > now()) break;
        task = tasks_.top();
        tasks_.pop();
        // A timer fires only if it is still live (erasing it here keeps the
        // table bounded) and its node is up.
        if (task.timer &&
            (live_timers_.erase(task.seq) == 0 || node_ == nullptr)) {
          continue;
        }
      }
      task.fn();
    }
  }
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
  if (rng_.chance(config_.drop_prob)) return;
  send_queue_.push_back(PendingSend{to, frame});
  if (rng_.chance(config_.dup_prob)) {
    send_queue_.push_back(PendingSend{to, frame});
  }
}

void UdpHost::queue_self(const Wire& msg) {
  // Held to the datagram limit like any send, though it is never framed.
  if (msg.payload.size() > max_datagram_bytes()) {
    metrics_.send_failures += 1;
    return;
  }
  self_sent_.push_back(msg);
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
    if (from >= config_.peers.size() || node_ == nullptr) return;
    node_->on_message(from, wire);
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
    const auto epoch = UdpHost::Clock::now();
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
      UdpHost::Clock::now() + std::chrono::nanoseconds(timeout);
  while (UdpHost::Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

}  // namespace abcast::net
