#include "sim/simulation.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace abcast::sim {

namespace {

/// Local (self) delivery latency; self sends are never dropped.
constexpr Duration kSelfDelay = micros(10);

/// Scales a non-negative duration by a non-negative factor, saturating
/// instead of overflowing (a 1e9 skew on a 60s timer must not wrap).
Duration scale_duration(Duration d, double factor) {
  if (d <= 0 || factor <= 0.0) return 0;
  const double scaled = static_cast<double>(d) * factor;
  constexpr double kMax = 9.0e18;  // < INT64_MAX, safely representable
  if (scaled >= kMax) return static_cast<Duration>(kMax);
  return static_cast<Duration>(scaled);
}

}  // namespace

// ---------------------------------------------------------------- SimHost

SimHost::SimHost(Simulation& sim, ProcessId id)
    : sim_(sim), id_(id), rng_(sim.rng().fork()),
      storage_(std::make_unique<FaultyStorage>(
          sim.config().storage_factory
              ? sim.config().storage_factory(id)
              : std::make_unique<MemStableStorage>(),
          rng_.fork())) {
  storage_->set_profile(sim.config().storage_faults);
  if (sim.config().trace_capacity > 0) {
    recorder_ =
        std::make_unique<obs::TraceRecorder>(id, sim.config().trace_capacity);
    recorder_->set_clock([this] { return now(); });
    // Trace completed log writes through the fault decorator, so a put that
    // crashes the process records nothing (log completes or process dies).
    tracing_storage_ = std::make_unique<TracingStorage>(
        *storage_, *recorder_, [this] { return now(); });
  }
}

obs::MetricsRegistry* SimHost::metrics_registry() {
  return &sim_.metrics_registry();
}

std::uint32_t SimHost::group_size() const { return sim_.n(); }

std::size_t SimHost::max_datagram_bytes() const {
  return sim_.config_.net.max_datagram_bytes;
}

TimePoint SimHost::now() const { return sim_.scheduler_.now(); }

TimerId SimHost::schedule_after(Duration delay, std::function<void()> fn) {
  ABCAST_CHECK_MSG(node_ != nullptr, "down process cannot schedule timers");
  // Timer skew scales the requested delay (a slow clock fires late); a
  // pending slow-disk stall pushes the timer past the stall — the process
  // could not have armed it before resuming.
  const Duration effective =
      scale_duration(delay < 0 ? 0 : delay, timer_scale_) +
      consume_busy_delay();
  // Wrap so the token is forgotten once fired, and the callback is skipped
  // if the host crashed (crash cancels, but belt-and-braces for reentrancy:
  // a crash executed from within this very callback chain).
  const auto token_holder = std::make_shared<Scheduler::Token>(0);
  auto token = sim_.scheduler_.schedule_after(
      effective, [this, fn = std::move(fn), token_holder]() {
        live_timers_.erase(*token_holder);
        if (node_ == nullptr) return;  // crashed between firing and running
        try {
          fn();
          consume_busy_delay();  // trailing slow ops stall the host now
        } catch (const SimulatedCrash&) {
          crash_from_storage_fault();
        } catch (const StorageIoError&) {
          // A log operation that fails leaves the process in an undefined
          // durable/volatile mix; the paper's model has only one answer:
          // the process crashes (and recovers from whatever was logged).
          crash_from_storage_fault();
        }
      });
  *token_holder = token;
  live_timers_.insert(token);
  return token;
}

void SimHost::cancel_timer(TimerId id) {
  live_timers_.erase(id);
  sim_.scheduler_.cancel(id);
}

void SimHost::send(ProcessId to, const Wire& msg) {
  ABCAST_CHECK_MSG(node_ != nullptr, "down process cannot send");
  ABCAST_CHECK_MSG(to < sim_.n(), "send target out of range");
  // A datagram sent after a slow storage operation leaves the host only
  // once the stall has passed.
  sim_.transmit(id_, to, msg, consume_busy_delay());
}

Duration SimHost::consume_busy_delay() {
  const Duration pending = storage_->take_pending_delay();
  if (pending > 0) {
    const TimePoint base = std::max(busy_until_, now());
    busy_until_ = base + pending;
  }
  const TimePoint t = now();
  return busy_until_ > t ? busy_until_ - t : 0;
}

bool SimHost::start(const NodeFactory& factory, bool recovering) {
  ABCAST_CHECK_MSG(node_ == nullptr, "process already up");
  if (recovering && recorder_) {
    recorder_->record(obs::EventKind::kRecoverBegin, now());
  }
  node_ = factory(*this);
  ABCAST_CHECK(node_ != nullptr);
  if (recovering) stats_.recoveries += 1;
  try {
    node_->start(recovering);
  } catch (const SimulatedCrash&) {
    crash_from_storage_fault();
    if (recovering) stats_.failed_recoveries += 1;
    return false;
  } catch (const StorageIoError&) {
    crash_from_storage_fault();
    if (recovering) stats_.failed_recoveries += 1;
    return false;
  }
  if (recovering && recorder_) {
    recorder_->record(obs::EventKind::kRecoverEnd, now());
  }
  consume_busy_delay();  // a slow recovery replay stalls the fresh stack
  return true;
}

void SimHost::crash() {
  ABCAST_CHECK_MSG(node_ != nullptr, "process already down");
  // Destroying the stack loses all volatile state; cancelling the timers
  // models the death of all pending local activity.
  node_.reset();
  for (const auto token : live_timers_) sim_.scheduler_.cancel(token);
  live_timers_.clear();
  // A reboot clears the device queue: the in-progress stall dies with the
  // incarnation (the latency *profile* on the decorator persists).
  busy_until_ = 0;
  storage_->take_pending_delay();
  stats_.crashes += 1;
  if (recorder_) recorder_->record(obs::EventKind::kCrash, now());
}

void SimHost::crash_from_storage_fault() {
  // Reached only after the exception fully unwound out of protocol code,
  // so destroying the stack here is safe.
  crash();
  stats_.storage_crashes += 1;
}

void SimHost::deliver(ProcessId from, const Wire& msg) {
  if (node_ == nullptr) return;  // lost: arrived while down (paper §2.1)
  // A host stalled on its disk consumes nothing until the stall passes:
  // the datagram waits in the receive buffer (and is lost if the host
  // crashes first — exactly the kernel-buffer behaviour).
  const Duration wait = consume_busy_delay();
  if (wait > 0) {
    sim_.scheduler_.schedule_after(
        wait, [this, from, copy = msg]() { deliver(from, copy); });
    return;
  }
  try {
    node_->on_message(from, msg);
    consume_busy_delay();  // trailing slow ops stall the host now
  } catch (const SimulatedCrash&) {
    crash_from_storage_fault();
  } catch (const StorageIoError&) {
    crash_from_storage_fault();
  }
}

// ------------------------------------------------------------- Simulation

Simulation::Simulation(SimConfig config)
    : config_(config), rng_(config.seed) {
  ABCAST_CHECK(config_.n >= 1);
  ABCAST_CHECK(config_.net.delay_min >= 0);
  ABCAST_CHECK(config_.net.delay_max >= config_.net.delay_min);
  hosts_.reserve(config_.n);
  for (ProcessId p = 0; p < config_.n; ++p) {
    hosts_.push_back(std::make_unique<SimHost>(*this, p));
  }
}

Simulation::~Simulation() = default;

SimHost& Simulation::host(ProcessId p) {
  ABCAST_CHECK(p < hosts_.size());
  return *hosts_[p];
}

NodeApp* Simulation::node(ProcessId p) { return host(p).node_.get(); }

void Simulation::start_all() {
  for (ProcessId p = 0; p < config_.n; ++p) start(p);
}

void Simulation::start(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  host(p).start(factory_, /*recovering=*/false);
}

void Simulation::crash(ProcessId p) { host(p).crash(); }

bool Simulation::recover(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  return host(p).start(factory_, /*recovering=*/true);
}

void Simulation::crash_at(TimePoint t, ProcessId p) {
  at(t, [this, p] {
    if (host(p).is_up()) crash(p);
  });
}

void Simulation::recover_at(TimePoint t, ProcessId p) {
  at(t, [this, p] {
    if (!host(p).is_up()) recover(p);
  });
}

void Simulation::block_link(ProcessId a, ProcessId b) {
  blocked_links_.insert({a, b});
}

void Simulation::unblock_link(ProcessId a, ProcessId b) {
  blocked_links_.erase({a, b});
}

void Simulation::apply_partition(const std::vector<ProcessId>& members,
                                 PartitionMode mode, bool install) {
  const std::set<ProcessId> side(members.begin(), members.end());
  for (ProcessId a = 0; a < config_.n; ++a) {
    for (ProcessId b = 0; b < config_.n; ++b) {
      if (a == b) continue;
      if (side.count(a) == side.count(b)) continue;  // same side of the cut
      // Directed link a -> b crosses the cut. Which directions the mode
      // blocks: kInbound only those terminating inside `members`,
      // kOutbound only those originating there.
      const bool into_members = side.count(b) != 0;
      const bool blocked = mode == PartitionMode::kSymmetric ||
                           (mode == PartitionMode::kInbound && into_members) ||
                           (mode == PartitionMode::kOutbound && !into_members);
      if (!blocked) continue;
      if (install) {
        blocked_links_.insert({a, b});
      } else {
        blocked_links_.erase({a, b});
      }
    }
  }
}

void Simulation::partition(const std::vector<ProcessId>& members,
                           PartitionMode mode) {
  apply_partition(members, mode, /*install=*/true);
}

void Simulation::unpartition(const std::vector<ProcessId>& members,
                             PartitionMode mode) {
  apply_partition(members, mode, /*install=*/false);
}

void Simulation::heal_partition() { blocked_links_.clear(); }

void Simulation::heal_link(ProcessId a, ProcessId b) {
  unblock_link(a, b);
  unblock_link(b, a);
}

void Simulation::transmit(ProcessId from, ProcessId to, const Wire& msg,
                          Duration sender_stall) {
  net_stats_.sent += 1;
  const std::uint64_t bytes = msg.payload.size() + sizeof(std::uint16_t);
  net_stats_.bytes_sent += bytes;
  net_stats_.sent_by_type[msg.type] += 1;
  net_stats_.bytes_by_type[msg.type] += bytes;
  auto& largest = net_stats_.max_payload_by_type[msg.type];
  largest = std::max(largest, msg.payload.size());

  // Before any random draw, so a run that never sends an oversize payload
  // keeps its random stream.
  if (msg.payload.size() > config_.net.max_datagram_bytes) {
    net_stats_.dropped_oversize += 1;
    return;
  }
  if (from != to && blocked_links_.count({from, to}) != 0) {
    net_stats_.dropped_partition += 1;
    return;
  }

  const NetConfig& net = config_.net;
  // Gray failure: the receiver's rx factor inflates the channel delay of
  // everything addressed to it (sampled at send time, so a run stays
  // deterministic); the sender's disk stall delays the departure itself.
  const double rx_factor = hosts_[to]->rx_delay_factor();
  auto schedule_copy = [this, from, to, &msg, sender_stall,
                        rx_factor](Duration delay) {
    // The Wire is copied into the event: channels may hold messages long
    // after the sender's stack is gone. The copy only bumps the payload
    // refcount — a multisend's bytes are encoded once and shared by every
    // recipient's (and every duplicate's) in-flight event.
    scheduler_.schedule_after(
        sender_stall + scale_duration(delay, rx_factor),
        [this, from, to, copy = msg]() {
          if (!hosts_[to]->is_up()) {
            net_stats_.dropped_down += 1;
            return;
          }
          net_stats_.delivered += 1;
          hosts_[to]->deliver(from, copy);
        });
  };

  if (from == to) {
    // Local delivery never traverses the lossy channel.
    schedule_copy(kSelfDelay);
    return;
  }

  if (rng_.chance(net.drop_prob)) {
    net_stats_.dropped_channel += 1;
    return;
  }
  schedule_copy(rng_.uniform(net.delay_min, net.delay_max));
  if (rng_.chance(net.dup_prob)) {
    net_stats_.duplicated += 1;
    schedule_copy(rng_.uniform(net.delay_min, net.delay_max));
  }
}

void Simulation::run_until(TimePoint t) {
  while (auto next = scheduler_.next_time()) {
    if (*next > t) break;
    scheduler_.step();
  }
  // Idle gap: the clock still reaches t, so run_for() makes progress even
  // when nothing is scheduled.
  scheduler_.advance_to(t);
}

bool Simulation::run_until_pred(const std::function<bool()>& pred,
                                TimePoint deadline) {
  if (pred()) return true;
  while (auto next = scheduler_.next_time()) {
    if (*next > deadline) break;
    scheduler_.step();
    if (pred()) return true;
  }
  return false;
}

}  // namespace abcast::sim
