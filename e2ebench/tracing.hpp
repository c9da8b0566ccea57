// Per-layer spans for the traced run, recorded entirely from outside src/.
//
// Every wrapper here sits on a public seam of the production stack:
//
//   TracedEnv      Env handed to the protocol stack: times send/multisend
//                  (net) and wraps every timer callback (env);
//   TracedNode     NodeApp around RsmNode: times on_message, classified by
//                  the module whose handles() claims the MsgType (fd,
//                  consensus, core), and start();
//   TracedStorage  StableStorage installed through UdpConfig's
//                  storage_factory: times put/get/erase/scan/flush (storage);
//   TracedMachine  StateMachine around KvStore: times apply (apps).
//
// All four run on one host's event-loop thread, so each host owns one
// SpanLog and nothing here locks. Spans stay in memory until the run ends;
// a span's self time is its duration minus the durations of the spans it
// directly encloses, so a handler's self time excludes the storage, apply
// and send work it triggered.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "apps/rsm.hpp"
#include "apps/state_machine.hpp"
#include "env/env.hpp"
#include "net/udp_env.hpp"
#include "storage/segment_log_storage.hpp"

namespace e2e {

enum class Kind : std::uint8_t {
  kStart,      // NodeApp::start
  kSubmit,     // RsmNode::submit, inside UdpHost::call
  kFd,         // on_message of a failure-detector MsgType
  kConsensus,  // on_message of a consensus MsgType
  kCore,       // on_message of an atomic-broadcast MsgType
  kTimer,      // a timer callback scheduled through Env::schedule_after
  kSend,       // Env::send / Env::multisend
  kPut,
  kGet,
  kScan,  // keys_with_prefix
  kErase,
  kFlush,  // StableStorage::flush, the host's per-pass I/O barrier
  kApply,  // StateMachine::apply
  kCount,
};

const char* kind_name(Kind k);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t self_ns = 0;
  std::uint32_t parent = 0;  // 1-based index of the enclosing span, 0 = none
  std::uint32_t bytes = 0;   // send: wire bytes; put: key+value;
                             // flush: 1 at a sync point, else 0
  std::uint16_t type = 0;    // MsgType of handler and send spans
  Kind kind = Kind::kStart;
};

/// One host's span buffer. Loop-thread only, except that the owner may read
/// it after the host's thread has been joined.
class SpanLog {
 public:
  /// Spans are recorded only while enabled; toggled from a UdpHost::call
  /// task, which never runs inside a span.
  void set_enabled(bool on) { enabled_ = on; }

  std::uint32_t open(Kind kind, std::uint16_t type);
  void close(std::uint32_t index, std::uint64_t bytes);

  const std::deque<Span>& spans() const { return spans_; }

  /// Time a recovering start() spent reading stable storage (get and
  /// keys_with_prefix), recorded whether or not spans are enabled.
  bool in_recovering_start = false;
  std::uint64_t recovery_read_ns = 0;

  /// Loop-thread CPU spent inside flush() while spans are enabled; the rest
  /// of a flush span's duration is waiting (for the disk, when it syncs).
  std::uint64_t flush_cpu_ns = 0;
  bool enabled() const { return enabled_; }

 private:
  struct Open {
    std::uint32_t index = 0;
    std::uint64_t child_ns = 0;
  };
  bool enabled_ = false;
  std::deque<Span> spans_;
  std::vector<Open> stack_;
};

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// RAII span: opens on construction, closes on destruction (also when the
/// wrapped call throws).
class Scope {
 public:
  Scope(SpanLog& log, Kind kind, std::uint16_t type = 0)
      : log_(log), index_(log.open(kind, type)) {}
  ~Scope() { log_.close(index_, bytes_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  SpanLog& log_;
  std::uint32_t index_;
  std::uint64_t bytes_ = 0;
};

class TracedStorage final : public abcast::StableStorage {
 public:
  TracedStorage(std::unique_ptr<abcast::SegmentedLogStorage> inner,
                SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void put(std::string_view key, const abcast::Bytes& value) override;
  std::optional<abcast::Bytes> get(std::string_view key) override;
  void erase(std::string_view key) override;
  void flush() override;
  std::vector<std::string> keys_with_prefix(std::string_view prefix) override;
  std::uint64_t footprint_bytes() override { return inner_->footprint_bytes(); }
  const abcast::StorageStats& stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<abcast::SegmentedLogStorage> inner_;
  SpanLog& log_;
  std::uint64_t flushed_appends_ = 0;  // SegLogStats::appends at last flush
};

class TracedMachine final : public abcast::apps::StateMachine {
 public:
  TracedMachine(std::unique_ptr<abcast::apps::StateMachine> inner,
                SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void apply(const abcast::Bytes& command) override {
    Scope s(log_, Kind::kApply);
    inner_->apply(command);
  }
  abcast::Bytes snapshot() const override { return inner_->snapshot(); }
  void restore(const abcast::Bytes& snapshot) override {
    inner_->restore(snapshot);
  }

 private:
  std::unique_ptr<abcast::apps::StateMachine> inner_;
  SpanLog& log_;
};

/// Forwards every Env virtual to the host, timing the ones that do work.
class TracedEnv final : public abcast::Env {
 public:
  TracedEnv(abcast::net::UdpHost& host, SpanLog& log)
      : host_(host), log_(log) {}

  abcast::ProcessId self() const override { return host_.self(); }
  std::uint32_t group_size() const override { return host_.group_size(); }
  abcast::TimePoint now() const override { return host_.now(); }
  abcast::TimerId schedule_after(abcast::Duration delay,
                                 std::function<void()> fn) override;
  void cancel_timer(abcast::TimerId id) override { host_.cancel_timer(id); }
  void send(abcast::ProcessId to, const abcast::Wire& msg) override;
  void multisend(const abcast::Wire& msg) override;
  abcast::StableStorage& storage() override { return host_.storage(); }
  abcast::Rng& rng() override { return host_.rng(); }
  abcast::obs::TraceRecorder* tracer() override { return host_.tracer(); }
  abcast::obs::MetricsRegistry* metrics_registry() override {
    return host_.metrics_registry();
  }

 private:
  abcast::net::UdpHost& host_;
  SpanLog& log_;
};

/// The traced replica: a TracedEnv plus the RsmNode built on it, recreated
/// together at every start like any NodeApp.
class TracedNode final : public abcast::NodeApp {
 public:
  TracedNode(abcast::net::UdpHost& host, SpanLog& log,
             abcast::core::StackConfig config,
             abcast::apps::RsmNode::MachineFactory factory,
             abcast::apps::Rsm::ApplyObserver observer);

  void start(bool recovering) override;
  void on_message(abcast::ProcessId from, const abcast::Wire& msg) override;

  abcast::apps::RsmNode& rsm_node() { return node_; }

 private:
  SpanLog& log_;
  TracedEnv env_;
  abcast::apps::RsmNode node_;
};

}  // namespace e2e
