#include "rt/rt_cluster.hpp"

#include <thread>

#include "common/check.hpp"

namespace abcast::rt {

using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------- RtHost

RtHost::RtHost(RtCluster& cluster, ProcessId id)
    : EventLoop(id, cluster.n(), cluster.config_.seed * 1000003 + id,
                cluster.config_.storage_factory
                    ? cluster.config_.storage_factory(id)
                    : std::make_unique<MemStableStorage>(),
                cluster.epoch_),
      cluster_(cluster) {
  if (cluster.config_.trace_capacity > 0) {
    recorder_ = std::make_unique<obs::TraceRecorder>(
        id, cluster.config_.trace_capacity);
    recorder_->set_clock([this] { return now(); });
    tracing_storage_ = std::make_unique<TracingStorage>(
        EventLoop::storage(), *recorder_, [this] { return now(); });
  }
  start_loop();
}

RtHost::~RtHost() { shutdown(); }

obs::MetricsRegistry* RtHost::metrics_registry() {
  return &cluster_.metrics_registry();
}

void RtHost::send(ProcessId to, const Wire& msg) {
  ABCAST_CHECK(to < group_size());
  if (to == self()) {
    send_to_self(msg);
  } else {
    outbox_.emplace_back(to, msg);
  }
}

void RtHost::release_sends() {
  const RtNetConfig& net = cluster_.config_.net;
  for (auto& [to, msg] : outbox_) {
    RtHost& peer = cluster_.host(to);
    if (rng().chance(net.drop_prob)) continue;
    peer.deliver_at(now() + rng().uniform(net.delay_min, net.delay_max),
                    self(), msg);
    if (rng().chance(net.dup_prob)) {
      peer.deliver_at(now() + rng().uniform(net.delay_min, net.delay_max),
                      self(), std::move(msg));
    }
  }
  outbox_.clear();
}

// -------------------------------------------------------------- RtCluster

RtCluster::RtCluster(RtConfig config)
    : config_(std::move(config)), epoch_(Clock::now()) {
  ABCAST_CHECK(config_.n >= 1);
  hosts_.reserve(config_.n);
  for (ProcessId p = 0; p < config_.n; ++p) {
    hosts_.push_back(std::make_unique<RtHost>(*this, p));
  }
}

RtCluster::~RtCluster() {
  // Every loop stops before any host dies: a pass releasing sends touches
  // its peers.
  for (auto& h : hosts_) h->shutdown();
}

TimePoint RtCluster::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

RtHost& RtCluster::host(ProcessId p) {
  ABCAST_CHECK(p < hosts_.size());
  return *hosts_[p];
}

void RtCluster::start_all() {
  for (ProcessId p = 0; p < config_.n; ++p) start(p);
}

void RtCluster::start(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  host(p).start_node(factory_, /*recovering=*/false);
}

void RtCluster::crash(ProcessId p) { host(p).crash_node(); }

void RtCluster::recover(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  host(p).start_node(factory_, /*recovering=*/true);
}

bool RtCluster::wait_for(const std::function<bool()>& pred, Duration timeout,
                         Duration poll) const {
  const TimePoint deadline = now() + timeout;
  while (now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::nanoseconds(poll));
  }
  return pred();
}

}  // namespace abcast::rt
