// Host environment seen by protocol code.
//
// Protocol modules (failure detector, consensus, atomic broadcast, apps) are
// written against Env + NodeApp only, so the same objects run under the
// deterministic simulator (src/sim) and on the real-time host, UdpHost
// (src/net: an event loop over UDP sockets).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "env/stable_storage.hpp"
#include "env/wire.hpp"

namespace abcast {

namespace obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace obs

/// Handle for a pending timer; 0 is never a valid id.
using TimerId = std::uint64_t;

/// Env::max_datagram_bytes()'s default: UDP's 65,507-byte IPv4 payload less
/// UdpHost's 4-byte sender id and the Wire header.
inline constexpr std::size_t kUdpMaxDatagramBytes =
    65'507 - 4 - kWireHeaderBytes;

/// Per-process host services. All callbacks into protocol code (timers,
/// message delivery) are serialized by the host: a protocol object never
/// needs its own locking.
class Env {
 public:
  virtual ~Env() = default;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// This process's identity, in 0..group_size()-1.
  virtual ProcessId self() const = 0;

  /// Number of processes in the group (the paper's Π).
  virtual std::uint32_t group_size() const = 0;

  /// Current time (virtual in the simulator, steady-clock on the real-time
  /// hosts).
  virtual TimePoint now() const = 0;

  /// Runs `fn` once after `delay`, unless cancelled or the process crashes
  /// first (a crash silently cancels all pending timers — they are volatile
  /// state).
  virtual TimerId schedule_after(Duration delay,
                                 std::function<void()> fn) = 0;

  /// Cancels a pending timer; no-op if already fired or cancelled.
  virtual void cancel_timer(TimerId id) = 0;

  /// Unreliable send (the paper's transport): the message may be lost,
  /// duplicated, or arbitrarily delayed, but the channel is fair — a message
  /// sent infinitely often is received infinitely often.
  virtual void send(ProcessId to, const Wire& msg) = 0;

  /// The largest Wire payload one send or multisend can carry. A host drops
  /// a larger one (UdpHost counts it in send_failures, the simulator in
  /// NetStats::dropped_oversize); no fair-lossy channel (§3.1) ever delivers
  /// it, so protocol code sizes every datagram that can grow to this.
  virtual std::size_t max_datagram_bytes() const {
    return kUdpMaxDatagramBytes;
  }

  /// The paper's `multisend` macro: best-effort send to every process,
  /// including self. The payload is encoded once by the caller and shared
  /// across recipients (Wire carries refcounted bytes); hosts that must
  /// re-frame per datagram (e.g. UDP) override this to frame once too.
  virtual void multisend(const Wire& msg) {
    for (ProcessId p = 0; p < group_size(); ++p) send(p, msg);
  }

  /// This process's stable storage (survives crashes).
  virtual StableStorage& storage() = 0;

  /// Host-provided deterministic randomness (for jitter etc.).
  virtual Rng& rng() = 0;

  /// Protocol event recorder for this process, or nullptr when tracing is
  /// off. Lives in the host, OUTSIDE the crash boundary: the trace spans
  /// every incarnation of the process.
  virtual obs::TraceRecorder* tracer() { return nullptr; }

  /// Cluster-wide metrics registry, or nullptr when none is installed.
  /// Also outside the crash boundary (see obs/metrics.hpp on bindings).
  virtual obs::MetricsRegistry* metrics_registry() { return nullptr; }
};

/// A protocol stack instance hosted on one process.
///
/// Lifecycle: the host constructs the NodeApp (via NodeFactory), calls
/// start() exactly once, then delivers messages via on_message(). On a crash
/// the host *destroys* the object — losing all volatile state by
/// construction — and on recovery constructs a fresh instance with
/// recovering=true.
class NodeApp {
 public:
  virtual ~NodeApp() = default;

  NodeApp() = default;
  NodeApp(const NodeApp&) = delete;
  NodeApp& operator=(const NodeApp&) = delete;

  /// Called once after construction. `recovering` is true when this process
  /// has been up before (i.e., stable storage may hold logged state).
  virtual void start(bool recovering) = 0;

  /// Called for each datagram consumed from the input buffer.
  virtual void on_message(ProcessId from, const Wire& msg) = 0;
};

/// Creates the protocol stack for a process; invoked at initial start and at
/// every recovery. The Env pointer remains valid for the NodeApp's lifetime.
using NodeFactory = std::function<std::unique_ptr<NodeApp>(Env&)>;

}  // namespace abcast
