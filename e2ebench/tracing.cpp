#include "tracing.hpp"

#include <algorithm>
#include <limits>

namespace e2e {

namespace {

std::uint32_t clamp32(std::uint64_t v) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(v, std::numeric_limits<std::uint32_t>::max()));
}

// [u32 sender pid][u16 type][u32 length][payload]: UdpHost's datagram frame.
std::uint64_t frame_bytes(const abcast::Wire& msg) {
  return 4 + 2 + 4 + msg.payload.size();
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kStart: return "start";
    case Kind::kSubmit: return "submit";
    case Kind::kFd: return "fd";
    case Kind::kConsensus: return "consensus";
    case Kind::kCore: return "core";
    case Kind::kTimer: return "timer";
    case Kind::kSend: return "send";
    case Kind::kPut: return "put";
    case Kind::kGet: return "get";
    case Kind::kScan: return "scan";
    case Kind::kErase: return "erase";
    case Kind::kFlush: return "flush";
    case Kind::kApply: return "apply";
    case Kind::kCount: break;
  }
  return "other";
}

std::uint32_t SpanLog::open(Kind kind, std::uint16_t type) {
  if (!enabled_) return 0;
  Span s;
  s.kind = kind;
  s.type = type;
  s.parent = stack_.empty() ? 0 : stack_.back().index;
  spans_.push_back(s);
  const auto index = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(Open{index, 0});
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = mono_ns();
  return index;
}

void SpanLog::close(std::uint32_t index, std::uint64_t bytes) {
  if (index == 0) return;
  const std::uint64_t end = mono_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  Span& s = spans_[index - 1];
  const std::uint64_t dur = end - s.start_ns;
  s.dur_ns = clamp32(dur);
  s.self_ns = clamp32(dur > open.child_ns ? dur - open.child_ns : 0);
  s.bytes = clamp32(bytes);
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

void TracedStorage::put(std::string_view key, const abcast::Bytes& value) {
  Scope s(log_, Kind::kPut);
  s.set_bytes(key.size() + value.size());
  inner_->put(key, value);
}

std::optional<abcast::Bytes> TracedStorage::get(std::string_view key) {
  const std::uint64_t t0 = mono_ns();
  std::optional<abcast::Bytes> v;
  {
    Scope s(log_, Kind::kGet);
    v = inner_->get(key);
  }
  if (log_.in_recovering_start) log_.recovery_read_ns += mono_ns() - t0;
  return v;
}

void TracedStorage::erase(std::string_view key) {
  Scope s(log_, Kind::kErase);
  inner_->erase(key);
}

void TracedStorage::flush() {
  const std::uint64_t cpu0 = log_.enabled() ? thread_cpu_ns() : 0;
  {
    Scope s(log_, Kind::kFlush);
    inner_->flush();
    // A barrier that finds records appended since the previous one is a
    // sync point: where SyncMode::kDeferred would fdatasync.
    const std::uint64_t appends = inner_->seg_stats().appends;
    s.set_bytes(appends != flushed_appends_ ? 1 : 0);
    flushed_appends_ = appends;
  }
  if (log_.enabled()) log_.flush_cpu_ns += thread_cpu_ns() - cpu0;
}

std::vector<std::string> TracedStorage::keys_with_prefix(
    std::string_view prefix) {
  const std::uint64_t t0 = mono_ns();
  std::vector<std::string> keys;
  {
    Scope s(log_, Kind::kScan);
    keys = inner_->keys_with_prefix(prefix);
  }
  if (log_.in_recovering_start) log_.recovery_read_ns += mono_ns() - t0;
  return keys;
}

abcast::TimerId TracedEnv::schedule_after(abcast::Duration delay,
                                          std::function<void()> fn) {
  // The callback may run after this TracedEnv died with its incarnation
  // (UdpHost drops such timers, but capture only the host-lifetime log).
  return host_.schedule_after(delay, [log = &log_, fn = std::move(fn)] {
    Scope s(*log, Kind::kTimer);
    fn();
  });
}

void TracedEnv::send(abcast::ProcessId to, const abcast::Wire& msg) {
  Scope s(log_, Kind::kSend, static_cast<std::uint16_t>(msg.type));
  s.set_bytes(frame_bytes(msg));
  host_.send(to, msg);
}

void TracedEnv::multisend(const abcast::Wire& msg) {
  Scope s(log_, Kind::kSend, static_cast<std::uint16_t>(msg.type));
  s.set_bytes(frame_bytes(msg) * group_size());
  host_.multisend(msg);
}

TracedNode::TracedNode(abcast::net::UdpHost& host, SpanLog& log,
                       abcast::core::StackConfig config,
                       abcast::apps::RsmNode::MachineFactory factory,
                       abcast::apps::Rsm::ApplyObserver observer)
    : log_(log),
      env_(host, log),
      node_(env_, std::move(config), std::move(factory), std::move(observer)) {}

void TracedNode::start(bool recovering) {
  Scope s(log_, Kind::kStart);
  log_.in_recovering_start = recovering;
  node_.start(recovering);
  log_.in_recovering_start = false;
}

void TracedNode::on_message(abcast::ProcessId from, const abcast::Wire& msg) {
  auto& stack = node_.stack();
  const Kind kind = stack.fd().handles(msg.type)          ? Kind::kFd
                    : stack.consensus().handles(msg.type) ? Kind::kConsensus
                                                          : Kind::kCore;
  Scope s(log_, kind, static_cast<std::uint16_t>(msg.type));
  node_.on_message(from, msg);
}

}  // namespace e2e
