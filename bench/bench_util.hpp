// Shared machinery for the experiment binaries: workload drivers over the
// simulated cluster, latency statistics, and fsync-cost projection.
//
// All experiment numbers are *virtual-time* measurements from the
// deterministic simulator, so runs are reproducible; wall-clock
// microbenchmarks of hot paths use google-benchmark (see bench_micro).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/fixture.hpp"
#include "harness/table.hpp"
#include "obs/metrics.hpp"

namespace abcast::bench {

struct LatencyStats {
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t samples = 0;
};

inline LatencyStats latency_stats(const std::vector<Duration>& latencies) {
  LatencyStats s;
  if (latencies.empty()) return s;
  std::vector<Duration> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (const auto l : sorted) sum += static_cast<double>(l);
  s.samples = sorted.size();
  s.mean_ms = sum / static_cast<double>(sorted.size()) / 1e6;
  s.p50_ms = static_cast<double>(sorted[sorted.size() / 2]) / 1e6;
  s.p99_ms =
      static_cast<double>(sorted[sorted.size() * 99 / 100]) / 1e6;
  return s;
}

struct WorkloadResult {
  std::uint64_t delivered = 0;
  Duration elapsed = 0;  // virtual time from first broadcast to last delivery
  LatencyStats latency;
  std::uint64_t rounds = 0;      // max round reached
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;

  double throughput_per_sec() const {
    if (elapsed <= 0) return 0;
    return static_cast<double>(delivered) /
           (static_cast<double>(elapsed) / 1e9);
  }
};

/// Open-loop driver: submits `total` messages in batches of `batch` from
/// round-robin senders, one batch every `gap`; waits for full delivery at
/// every process.
inline WorkloadResult run_open_loop(harness::Cluster& c, int total,
                                    int batch, Duration gap,
                                    Duration timeout = seconds(600)) {
  const auto net_before = c.sim().net_stats();
  const TimePoint start = c.sim().now();
  std::vector<MsgId> ids;
  ids.reserve(static_cast<std::size_t>(total));
  int sent = 0;
  ProcessId sender = 0;
  while (sent < total) {
    for (int b = 0; b < batch && sent < total; ++b, ++sent) {
      while (!c.sim().host(sender).is_up()) {
        sender = (sender + 1) % c.sim().n();
      }
      ids.push_back(c.broadcast(sender));
      sender = (sender + 1) % c.sim().n();
    }
    c.sim().run_for(gap);
  }
  c.await_delivery(ids, {}, timeout);

  WorkloadResult r;
  r.delivered = c.oracle().global_order().size();
  r.elapsed = c.sim().now() - start;
  r.latency = latency_stats(c.oracle().latencies());
  for (ProcessId p = 0; p < c.sim().n(); ++p) {
    if (c.stack(p) != nullptr) {
      r.rounds = std::max(r.rounds, c.stack(p)->ab().round());
    }
  }
  r.net_messages = c.sim().net_stats().sent - net_before.sent;
  r.net_bytes = c.sim().net_stats().bytes_sent - net_before.bytes_sent;
  return r;
}

/// Closed-loop driver: one outstanding message at a time (the basic
/// protocol's "A-broadcast returns when delivered" semantics).
inline WorkloadResult run_closed_loop(harness::Cluster& c, int total,
                                      Duration timeout = seconds(600)) {
  const auto net_before = c.sim().net_stats();
  const TimePoint start = c.sim().now();
  for (int i = 0; i < total; ++i) {
    const MsgId id = c.broadcast(0);
    c.await_delivery({id}, {}, timeout);
  }
  WorkloadResult r;
  r.delivered = c.oracle().global_order().size();
  r.elapsed = c.sim().now() - start;
  r.latency = latency_stats(c.oracle().latencies());
  r.rounds = c.stack(0)->ab().round();
  r.net_messages = c.sim().net_stats().sent - net_before.sent;
  r.net_bytes = c.sim().net_stats().bytes_sent - net_before.bytes_sent;
  return r;
}

/// Projects end-to-end latency when each log operation on the critical
/// path costs `fsync_ms` (the simulator itself charges log ops zero time).
inline double project_latency_ms(double base_ms, double log_ops_per_msg,
                                 double fsync_ms) {
  return base_ms + log_ops_per_msg * fsync_ms;
}

inline std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// True when ABCAST_BENCH_QUICK is set (non-empty): experiment binaries trim
/// their sweeps to smoke-test size. CI uses this to validate the bench
/// pipeline and artifact format without paying for the full sweeps.
inline bool bench_quick() {
  const char* v = std::getenv("ABCAST_BENCH_QUICK");
  return v != nullptr && *v != '\0';
}

/// Prints the standard experiment banner.
inline void banner(const char* id, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", id, claim);
}

// ---------------------------------------------------------------------------
// Machine-readable result rows.
//
// Experiment binaries emit one single-line JSON object per measured
// configuration through emit_json_row(). Rows always go to stdout (tagged
// streams are easy to grep); passing --metrics-json=PATH — stripped from
// argv by init_metrics_json() — appends every row to PATH as JSONL for
// sweep scripts.

/// Ordered single-line JSON object builder. Fields appear in insertion
/// order; string values are escaped.
class Json {
 public:
  Json& field(const std::string& name, const std::string& v) {
    key(name);
    body_ += '"';
    append_escaped(v);
    body_ += '"';
    return *this;
  }
  Json& field(const std::string& name, const char* v) {
    return field(name, std::string(v));
  }
  Json& field(const std::string& name, bool v) {
    key(name);
    body_ += v ? "true" : "false";
    return *this;
  }
  Json& field(const std::string& name, double v, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    key(name);
    body_ += buf;
    return *this;
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Json& field(const std::string& name, T v) {
    key(name);
    body_ += std::to_string(v);
    return *this;
  }
  /// Inserts a pre-rendered JSON value (e.g. a nested snapshot object).
  Json& raw(const std::string& name, const std::string& json) {
    key(name);
    body_ += json;
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    append_escaped(name);
    body_ += "\":";
  }
  void append_escaped(const std::string& s) {
    for (const char c : s) {
      switch (c) {
        case '"': body_ += "\\\""; break;
        case '\\': body_ += "\\\\"; break;
        case '\n': body_ += "\\n"; break;
        case '\t': body_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            body_ += buf;
          } else {
            body_ += c;
          }
      }
    }
  }
  std::string body_;
};

/// Path given via --metrics-json=PATH; empty when rows go to stdout only.
inline std::string& metrics_json_path() {
  static std::string path;
  return path;
}

/// Strips --metrics-json=PATH from argv and truncates the file. Other
/// arguments stay in place for the binary's own parsing.
inline void init_metrics_json(int& argc, char** argv) {
  int out = 1;
  const std::string prefix = "--metrics-json=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      metrics_json_path() = arg.substr(prefix.size());
      std::ofstream truncate(metrics_json_path(), std::ios::trunc);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

/// Prints the row to stdout and appends it to the --metrics-json file.
inline void emit_json_row(const Json& row) {
  const std::string line = row.str();
  std::printf("%s\n", line.c_str());
  if (!metrics_json_path().empty()) {
    std::ofstream out(metrics_json_path(), std::ios::app);
    out << line << '\n';
  }
}

/// Appends the cluster registry's full snapshot as a nested "metrics"
/// object, so a row carries every protocol counter alongside the workload
/// numbers.
inline Json& with_metrics(Json& row, harness::Cluster& c) {
  std::ostringstream metrics;
  c.sim().metrics_registry().snapshot().write_json(metrics);
  return row.raw("metrics", metrics.str());
}

}  // namespace abcast::bench
