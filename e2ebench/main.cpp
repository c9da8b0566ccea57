// Wall-clock benchmark of the production stack: three UdpHosts on loopback,
// each running RsmNode<KvStore> over its own SegmentedLogStorage (every
// record appended and UdpHost's per-pass flush barrier called, in
// SyncMode::kNone: no fdatasync, see README.md), with batched UDP and
// core::StackConfig at its defaults.
//
// One generator thread offers an open-loop, seeded schedule of 64 B puts
// through UdpHost::call -> RsmNode::submit and times each command from its
// due time to its first apply at the replica it was submitted to. After the
// drain every live replica must hold the same KvStore::digest(), have applied
// every accepted command exactly once in its current incarnation, and agree
// on the apply order. See README.md for the workloads and metrics.
//
//   e2e_bench --workload kv-spread|kv-leader|kv-crash --seed N --rep R
//             --seconds S --trace 0|1 --dir RUN_DIR
//
// Runs one repetition: a fresh cluster, S seconds of load from the schedule
// of (N, R), the drain, a restart probe and the correctness check. run.py
// runs the repetitions, each in its own process, and takes the medians.
// Prints human-readable lines, then one JSON line with every metric of the
// chosen mode. Exits 1 when the correctness check fails, 2 on bad usage.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "common/rng.hpp"
#include "net/udp_env.hpp"
#include "obs/metrics.hpp"
#include "storage/segment_log_storage.hpp"
#include "tracing.hpp"

namespace {

namespace fs = std::filesystem;
using abcast::Bytes;
using abcast::ProcessId;
using e2e::Kind;
using e2e::mono_ns;

constexpr std::uint32_t kReplicas = 3;
constexpr std::uint32_t kKeys = 1024;
constexpr std::size_t kPayloadBytes = 64;
constexpr ProcessId kCrashed = 2;  // the replica kv-crash (and the
                                   // post-drain recovery probe) restarts
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr const char* kWarmupKey = "warmup";

struct Workload {
  const char* name;
  double rate;       // offered commands per second, all replicas together
  bool leader_only;  // every command at replica 0, the Paxos leader
  bool crash;        // crash replica 2 mid-run and recover it
};

constexpr Workload kWorkloads[] = {
    {"kv-spread", 3000, false, false},
    {"kv-leader", 3000, true, false},
    {"kv-crash", 3000, false, true},
};

// kv-crash timing, relative to the load start: clients leave replica 2
// kFailoverLead before the crash so every command it accepted has been
// gossiped; the replica restarts kDowntime after the crash.
constexpr double kCrashFraction = 0.3;
constexpr double kFailoverLead = 0.15;
constexpr double kDowntime = 0.5;
constexpr double kDrainDeadline = 20.0;
constexpr double kRecoveryDeadline = 30.0;
constexpr int kRestartProbes = 5;  // post-drain restarts, steady workloads

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t rep = 0;
  double seconds = 2.5;
  bool trace = false;
  fs::path dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "kv-spread|kv-leader|kv-crash --seed N --rep R --seconds S "
               "--trace 0|1 --dir RUN_DIR\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage(("unknown workload " + v).c_str());
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--rep") {
      a.rep = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--dir") {
      a.dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (a.dir.empty()) usage("--dir is required");
  // The schedule seed is seed * 64 + rep; keep it one-to-one.
  if (a.rep >= 64) usage("--rep out of range");
  if (!(a.seconds >= 1 && a.seconds <= 60)) usage("--seconds out of range");
  return a;
}

// ---- the generated inputs -------------------------------------------------

/// The open-loop schedule: exponential inter-arrivals at the workload's rate,
/// a uniform key over kKeys, a home replica. The value carries the command's
/// index so every apply can be attributed.
struct Schedule {
  std::vector<std::uint64_t> due_ns;  // offset from the load start
  std::vector<std::uint8_t> home;
  std::vector<Bytes> payload;
  std::size_t size() const { return due_ns.size(); }
};

Schedule make_schedule(const Workload& w, std::uint64_t seed,
                       double seconds) {
  abcast::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const auto mean_gap = static_cast<std::int64_t>(1e9 / w.rate);
  const auto horizon = static_cast<std::uint64_t>(seconds * 1e9);
  Schedule s;
  std::uint64_t t = 0;
  for (std::size_t i = 0;; ++i) {
    t += static_cast<std::uint64_t>(rng.exponential(mean_gap));
    if (t >= horizon) break;
    char key[16];
    std::snprintf(key, sizeof key, "k%04u",
                  static_cast<unsigned>(rng.uniform(0, kKeys - 1)));
    // [u8 op][str key][str value][str expect][i64 delta] = 26 + |value|.
    char value[kPayloadBytes - 26 + 1];
    std::snprintf(value, sizeof value, "%016zx", i);
    for (std::size_t c = 16; c + 1 < sizeof value; ++c) {
      value[c] = static_cast<char>('a' + rng.uniform(0, 25));
    }
    value[sizeof value - 1] = '\0';
    s.due_ns.push_back(t);
    s.home.push_back(
        static_cast<std::uint8_t>(w.leader_only ? 0 : i % kReplicas));
    s.payload.push_back(abcast::apps::KvCommand::put(key, value));
  }
  return s;
}

/// Index of the command a payload carries: 0..n-1 for generated commands,
/// n for the warm-up command, SIZE_MAX for anything else.
std::size_t command_index(const Bytes& payload, std::size_t n) {
  try {
    abcast::BufReader r(payload);
    const auto cmd = abcast::apps::KvCommand::decode(r);
    if (cmd.key == kWarmupKey) return n;
    if (cmd.value.size() < 16) return SIZE_MAX;
    const auto idx = std::strtoull(cmd.value.substr(0, 16).c_str(), nullptr, 16);
    return idx < n ? static_cast<std::size_t>(idx) : SIZE_MAX;
  } catch (const abcast::CodecError&) {
    return SIZE_MAX;
  }
}

// ---- one replica's bookkeeping, outside the crash boundary ----------------

struct Replica {
  explicit Replica(std::size_t slots)
      : first_apply_ns(slots, 0), applied_now(slots, 0) {}

  // Written on the host's loop thread; read by the main thread only after
  // the host is shut down, except the atomic.
  std::vector<std::uint64_t> first_apply_ns;  // any incarnation; 0 = never
  std::vector<std::uint8_t> applied_now;      // current incarnation
  std::atomic<std::uint64_t> applied_cur{0};  // distinct, current incarnation
  std::uint64_t order_hash = kFnvBasis;       // current incarnation's order
  std::uint64_t duplicates = 0;               // any incarnation
  std::uint64_t unknown = 0;                  // applies of no known command
  abcast::apps::KvStore* store = nullptr;     // current incarnation's store
  abcast::apps::RsmNode* node = nullptr;      // current incarnation's node
  abcast::SegmentedLogStorage* seglog = nullptr;
  std::unique_ptr<e2e::SpanLog> log;  // traced run only

  void reset_incarnation() {
    std::fill(applied_now.begin(), applied_now.end(), 0);
    applied_cur.store(0, std::memory_order_relaxed);
    order_hash = kFnvBasis;
  }

  void on_apply(std::size_t idx) {
    if (idx >= applied_now.size()) {
      unknown += 1;
      return;
    }
    if (applied_now[idx] != 0) {
      duplicates += 1;
      return;
    }
    applied_now[idx] = 1;
    order_hash = (order_hash ^ idx) * kFnvPrime;
    if (first_apply_ns[idx] == 0) first_apply_ns[idx] = mono_ns();
    applied_cur.fetch_add(1, std::memory_order_relaxed);
  }
};

// ---- the cluster ------------------------------------------------------------

class Cluster {
 public:
  Cluster(const Args& args, std::size_t n_cmds) : n_cmds_(n_cmds) {
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      reps.push_back(std::make_unique<Replica>(n_cmds + 1));
      if (args.trace) reps.back()->log = std::make_unique<e2e::SpanLog>();
    }
    abcast::net::UdpBatchConfig batch;
    batch.enabled = true;
    // make_local_udp_cluster builds host i with the i-th factory call.
    auto next = std::make_shared<std::uint32_t>(0);
    auto storage = [this, next, dir = args.dir,
                    trace = args.trace]() -> std::unique_ptr<abcast::StableStorage> {
      const std::uint32_t i = (*next)++;
      abcast::SegmentedLogConfig cfg;
      cfg.dir = dir / ("node" + std::to_string(i));
      // The fdatasync latency of a shared disk is the host's, not the
      // program's, and it made every latency unrepeatable (README.md).
      cfg.sync = abcast::SyncMode::kNone;
      auto seg = std::make_unique<abcast::SegmentedLogStorage>(cfg);
      reps[i]->seglog = seg.get();
      if (trace) {
        return std::make_unique<e2e::TracedStorage>(std::move(seg),
                                                    *reps[i]->log);
      }
      return seg;
    };
    hosts = abcast::net::make_local_udp_cluster(kReplicas, args.seed, batch,
                                                &registry, storage);
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      factories_.push_back(make_factory(i));
    }
  }

  void start(ProcessId p, bool recovering) {
    hosts[p]->start_node(factories_[p], recovering);
  }

  /// Submits one payload at replica p; false when p is down (refused).
  bool submit(ProcessId p, Bytes payload) {
    Replica& rep = *reps[p];
    return hosts[p]->call([&rep, &payload] {
      if (rep.log) {
        e2e::Scope s(*rep.log, Kind::kSubmit);
        rep.node->submit(std::move(payload));
      } else {
        rep.node->submit(std::move(payload));
      }
    });
  }

  /// Runs fn on every host's loop thread (skipped where the node is down).
  void on_each_loop(const std::function<void(ProcessId)>& fn) {
    for (ProcessId p = 0; p < kReplicas; ++p) {
      hosts[p]->call([&fn, p] { fn(p); });
    }
  }

  bool wait_applied(std::uint64_t target, double deadline_s,
                    std::uint32_t only = kReplicas) const {
    const std::uint64_t end =
        mono_ns() + static_cast<std::uint64_t>(deadline_s * 1e9);
    for (;;) {
      bool done = true;
      for (ProcessId p = 0; p < kReplicas; ++p) {
        if (only != kReplicas && p != only) continue;
        if (reps[p]->applied_cur.load(std::memory_order_relaxed) < target) {
          done = false;
        }
      }
      if (done) return true;
      if (mono_ns() > end) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  void shutdown() {
    for (auto& h : hosts) h->shutdown();
  }

  // Declaration order: the bookkeeping and registry outlive the hosts,
  // whose destructors join the loop threads that write into them.
  std::vector<std::unique_ptr<Replica>> reps;
  abcast::obs::MetricsRegistry registry;

 private:
  abcast::NodeFactory make_factory(ProcessId p) {
    return [this, p](abcast::Env& env) -> std::unique_ptr<abcast::NodeApp> {
      Replica& rep = *reps[p];
      rep.reset_incarnation();
      const std::size_t n = n_cmds_;
      auto machine = [&rep]() -> std::unique_ptr<abcast::apps::StateMachine> {
        auto kv = std::make_unique<abcast::apps::KvStore>();
        rep.store = kv.get();
        if (rep.log) {
          return std::make_unique<e2e::TracedMachine>(std::move(kv), *rep.log);
        }
        return kv;
      };
      auto observer = [&rep, n](const abcast::core::AppMsg& m) {
        rep.on_apply(command_index(m.payload, n));
      };
      if (rep.log) {
        auto node = std::make_unique<e2e::TracedNode>(
            static_cast<abcast::net::UdpHost&>(env), *rep.log,
            abcast::core::StackConfig{}, machine, observer);
        rep.node = &node->rsm_node();
        return node;
      }
      auto node = std::make_unique<abcast::apps::RsmNode>(
          env, abcast::core::StackConfig{}, machine, observer);
      rep.node = node.get();
      return node;
    };
  }

  std::size_t n_cmds_;
  std::vector<abcast::NodeFactory> factories_;

 public:
  std::vector<std::unique_ptr<abcast::net::UdpHost>> hosts;  // joins first
};

// ---- small helpers --------------------------------------------------------

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Nearest-rank percentile of an ascending-sorted sample.
template <typename T>
double percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---- the run ----------------------------------------------------------------

struct LoopSample {
  std::array<std::uint64_t, kReplicas> cpu_ns{};
  std::array<abcast::SegLogStats, kReplicas> seg{};
};

/// Reads loop-thread CPU and SegLogStats on each loop thread, and turns the
/// traced run's spans on or off in the same task.
LoopSample sample_loops(Cluster& c, bool spans) {
  LoopSample s;
  c.on_each_loop([&c, &s, spans](ProcessId p) {
    s.cpu_ns[p] = e2e::thread_cpu_ns();
    s.seg[p] = c.reps[p]->seglog->seg_stats();
    if (c.reps[p]->log) c.reps[p]->log->set_enabled(spans);
  });
  return s;
}

struct Snapshots {
  abcast::obs::Snapshot start, pre_crash, end;
  bool crashed = false;
};

/// Window delta of a host-owned (net_*) counter, summed over hosts.
double host_delta(const Snapshots& s, const std::string& name) {
  return static_cast<double>(s.end.sum_by_name(name) -
                             s.start.sum_by_name(name));
}

/// Window delta of a node-owned (ab_*, cons_*) counter at one replica. A
/// crash unbinds the dead incarnation's counters and the new one counts from
/// zero, so the crashed replica's delta is taken in two pieces.
double node_delta(const Snapshots& s, const std::string& name, ProcessId p) {
  const abcast::obs::Labels l{{"node", std::to_string(p)}};
  if (s.crashed && p == kCrashed) {
    return static_cast<double>(s.pre_crash.value(name, l) -
                               s.start.value(name, l) + s.end.value(name, l));
  }
  return static_cast<double>(s.end.value(name, l) - s.start.value(name, l));
}

double node_sum(const Snapshots& s, const std::string& name) {
  double v = 0;
  for (ProcessId p = 0; p < kReplicas; ++p) v += node_delta(s, name, p);
  return v;
}

struct SpanTotals {
  std::array<std::uint64_t, static_cast<std::size_t>(Kind::kCount)> calls{},
      dur_ns{}, self_ns{}, bytes{}, max_ns{};
  std::uint64_t top_level_ns = 0;  // outermost spans except flush
  std::uint64_t flush_cpu_ns = 0;
  std::vector<std::uint32_t> sync_flush_ns;  // flushes at a sync point
  // Handler spans by MsgType: calls and self time.
  std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>> by_type;
};

SpanTotals total_spans(const Cluster& c) {
  SpanTotals t;
  for (const auto& rep : c.reps) {
    t.flush_cpu_ns += rep->log->flush_cpu_ns;
    for (const e2e::Span& s : rep->log->spans()) {
      const auto k = static_cast<std::size_t>(s.kind);
      t.calls[k] += 1;
      t.dur_ns[k] += s.dur_ns;
      t.self_ns[k] += s.self_ns;
      t.bytes[k] += s.bytes;
      t.max_ns[k] = std::max<std::uint64_t>(t.max_ns[k], s.dur_ns);
      if (s.parent == 0 && s.kind != Kind::kFlush) t.top_level_ns += s.dur_ns;
      if (s.kind == Kind::kFlush && s.bytes > 0) {
        t.sync_flush_ns.push_back(s.dur_ns);
      }
      if (s.kind == Kind::kFd || s.kind == Kind::kConsensus ||
          s.kind == Kind::kCore) {
        auto& [calls, self] = t.by_type[s.type];
        calls += 1;
        self += s.self_ns;
      }
    }
  }
  std::sort(t.sync_flush_ns.begin(), t.sync_flush_ns.end());
  return t;
}

void print_span_table(const SpanTotals& t, double m, double loop_cpu_us) {
  std::printf("# self time by span over %.0f delivered commands (loop-thread "
              "CPU %.2f us/msg):\n",
              m, per(loop_cpu_us, m));
  std::printf("#   %-10s %12s %14s %8s %12s\n", "span", "calls/msg",
              "self us/msg", "of CPU", "longest ms");
  for (std::size_t k = 0; k < static_cast<std::size_t>(Kind::kCount); ++k) {
    const double self = static_cast<double>(t.self_ns[k]) / 1e3;
    std::printf("#   %-10s %12.3f %14.3f %7.1f%% %12.3f\n",
                e2e::kind_name(static_cast<Kind>(k)),
                per(static_cast<double>(t.calls[k]), m), per(self, m),
                100 * per(self, loop_cpu_us),
                static_cast<double>(t.max_ns[k]) / 1e6);
  }
  std::printf("# handler self time by MsgType (us/msg):");
  for (const auto& [type, v] : t.by_type) {
    std::printf(" %u:%.3f", static_cast<unsigned>(type),
                per(static_cast<double>(v.second) / 1e3, m));
  }
  std::printf("\n");
}

struct RepResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// One repetition: a fresh cluster, its own schedule, load, drain, restart
/// probe and correctness check.
RepResult run_rep(const Args& args) {
  const Workload& w = *args.workload;
  const double seconds = args.seconds;
  Schedule sched = make_schedule(w, args.seed * 64 + args.rep, seconds);
  const std::size_t n = sched.size();
  RepResult res;
  res.attempted = n;

  // Set-up: cluster construction until a warm-up command is applied at
  // every replica. Each repetition starts from empty logs.
  fs::remove_all(args.dir);
  const std::uint64_t setup0 = mono_ns();
  auto c = std::make_unique<Cluster>(args, n);
  for (ProcessId p = 0; p < kReplicas; ++p) c->start(p, false);
  if (!c->submit(0, abcast::apps::KvCommand::put(kWarmupKey, "1")) ||
      !c->wait_applied(1, kDrainDeadline)) {
    throw std::runtime_error("warm-up command never applied");
  }
  const double setup_s = seconds_between(setup0, mono_ns());

  // ---- load ---------------------------------------------------------------
  Snapshots snaps;
  snaps.start = c->registry.snapshot();
  const LoopSample loops0 = sample_loops(*c, true);
  const double cpu0 = process_cpu_us();
  const std::uint64_t load0 = mono_ns() + 1'000'000;  // first due >= 1 ms out

  std::vector<std::uint8_t> accepted(n, 0), used(n, 0);
  std::vector<std::uint32_t> wait_ns(n, 0);
  std::uint64_t late_max_ns = 0;
  std::array<std::atomic<bool>, kReplicas> avail;
  for (auto& a : avail) a.store(true);

  std::thread gen([&] {
    // Default timer slack (50 us) would delay most sleeps by a large part of
    // the mean gap; lateness is reported, so keep it small instead.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t due = load0 + sched.due_ns[i];
      if (mono_ns() < due) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
      }
      const std::uint64_t begin = mono_ns();
      late_max_ns = std::max(late_max_ns, begin - due);
      auto r = static_cast<ProcessId>(sched.home[i]);
      if (!avail[r].load()) r = (r + 1) % kReplicas;  // fail over
      used[i] = static_cast<std::uint8_t>(r);
      accepted[i] = c->submit(r, std::move(sched.payload[i])) ? 1 : 0;
      wait_ns[i] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(mono_ns() - begin, UINT32_MAX));
    }
  });

  const auto at = [load0](double s) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(load0 + static_cast<std::uint64_t>(s * 1e9))));
  };
  // Restarts replica kCrashed, gives it back its clients, and waits until it
  // has applied everything the others had applied at the restart.
  const auto recover = [&c, &avail]() {
    const std::uint64_t target =
        std::max(c->reps[0]->applied_cur.load(), c->reps[1]->applied_cur.load());
    const std::uint64_t t0 = mono_ns();
    c->start(kCrashed, /*recovering=*/true);
    avail[kCrashed].store(true);
    if (!c->wait_applied(target, kRecoveryDeadline, kCrashed)) {
      std::printf("# replica %u missed the recovery deadline\n", kCrashed);
    }
    return seconds_between(t0, mono_ns());
  };
  double recovery_s = 0;
  if (w.crash) {
    const double crash_at = kCrashFraction * seconds;
    at(crash_at - kFailoverLead);
    avail[kCrashed].store(false);
    at(crash_at);
    snaps.pre_crash = c->registry.snapshot();
    snaps.crashed = true;
    c->hosts[kCrashed]->crash_node();
    at(crash_at + kDowntime);
    recovery_s = recover();
  }
  gen.join();

  std::uint64_t n_accepted = 0;
  for (auto a : accepted) n_accepted += a;
  if (!c->wait_applied(1 + n_accepted, kDrainDeadline)) {
    std::printf("# drain deadline passed\n");
  }
  const double cpu1 = process_cpu_us();
  const LoopSample loops1 = sample_loops(*c, false);
  snaps.end = c->registry.snapshot();

  // The steady workloads have no crash of their own; restart replica 2 after
  // the drain so recovery_s (a replay of the repetition's whole log) exists
  // for every workload. One such replay takes 10-20 ms, much of it waiting
  // for timers, so recovery_s is the median of kRestartProbes of them.
  abcast::obs::Snapshot after_recovery = snaps.end;
  if (!w.crash) {
    std::vector<double> probes;
    for (int i = 0; i < kRestartProbes; ++i) {
      c->hosts[kCrashed]->crash_node();
      probes.push_back(recover());
      if (i == 0) after_recovery = c->registry.snapshot();
    }
    std::sort(probes.begin(), probes.end());
    recovery_s = probes[probes.size() / 2];
  }
  c->shutdown();

  // ---- correctness ----------------------------------------------------------
  const auto fail = [&res](const char* what) {
    res.correct = false;
    std::printf("# CORRECTNESS FAILED: %s\n", what);
  };
  const Replica& r0 = *c->reps[0];
  for (const auto& rp : c->reps) {
    if (rp->store == nullptr || rp->store->digest() != r0.store->digest()) {
      fail("replica digests differ");
    }
    if (rp->order_hash != r0.order_hash ||
        rp->applied_cur.load() != r0.applied_cur.load()) {
      fail("replicas applied different sequences");
    }
    if (rp->duplicates != 0) fail("a command was applied twice");
    if (rp->unknown != 0) fail("an unknown command was applied");
  }
  std::vector<double> lat_ms;
  lat_ms.reserve(n);
  std::uint64_t last_apply = load0;
  for (std::size_t i = 0; i < n; ++i) {
    bool everywhere = accepted[i] != 0;
    for (const auto& rp : c->reps) {
      if (rp->applied_now[i] != accepted[i]) {
        if (accepted[i] == 0) fail("a refused command was applied");
        everywhere = false;
      }
    }
    if (!everywhere) {
      res.failed += 1;
      continue;
    }
    const std::uint64_t applied = c->reps[used[i]]->first_apply_ns[i];
    last_apply = std::max(last_apply, applied);
    lat_ms.push_back(static_cast<double>(applied - load0 - sched.due_ns[i]) /
                     1e6);
  }
  if (!res.correct) res.failed = n;
  const double delivered = static_cast<double>(n - res.failed);
  std::sort(lat_ms.begin(), lat_ms.end());
  std::printf("# %zu commands, setup %.4f s, commit p50 %.3f ms / "
              "p90 %.3f ms / p99 %.3f ms / p99.9 %.3f ms over %zu samples, "
              "failed_frac %.6f, recovery %.3f s\n",
              n, setup_s, percentile(lat_ms, 0.5), percentile(lat_ms, 0.9),
              percentile(lat_ms, 0.99), percentile(lat_ms, 0.999),
              lat_ms.size(), per(static_cast<double>(res.failed), n),
              recovery_s);

  res.metrics = {
      {"setup_s", setup_s, "s"},
      {"commit_p50_ms", percentile(lat_ms, 0.50), "ms"},
      {"commit_p90_ms", percentile(lat_ms, 0.90), "ms"},
      {"commit_p99_ms", percentile(lat_ms, 0.99), "ms"},
      {"commit_p999_ms", percentile(lat_ms, 0.999), "ms"},
      {"commit_samples", static_cast<double>(lat_ms.size()), "count"},
      {"failed_frac", per(static_cast<double>(res.failed), n), "frac"},
      {"delivered_per_s", per(delivered, seconds_between(load0, last_apply)),
       "1/s"},
      {"cpu_us_per_msg", per(cpu1 - cpu0, delivered), "us"},
      {"rss_mb", peak_rss_mb(), "MiB"},
      {"recovery_s", recovery_s, "s"},
  };
  if (!args.trace) {
    c.reset();
    fs::remove_all(args.dir);
    return res;
  }

  // ---- per-layer metrics ----------------------------------------------------
  const SpanTotals t = total_spans(*c);
  const auto calls = [&t](Kind k) {
    return static_cast<double>(t.calls[static_cast<std::size_t>(k)]);
  };
  const auto self_us = [&t](Kind k) {
    return static_cast<double>(t.self_ns[static_cast<std::size_t>(k)]) / 1e3;
  };
  const auto dur_us = [&t](Kind k) {
    return static_cast<double>(t.dur_ns[static_cast<std::size_t>(k)]) / 1e3;
  };
  const double m = delivered;
  double loop_cpu_us = 0, seg_bytes = 0, recovery_read_ns = 0;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    loop_cpu_us +=
        static_cast<double>(loops1.cpu_ns[p] - loops0.cpu_ns[p]) / 1e3;
    seg_bytes += static_cast<double>(loops1.seg[p].bytes_appended -
                                     loops0.seg[p].bytes_appended);
    recovery_read_ns += static_cast<double>(c->reps[p]->log->recovery_read_ns);
  }
  print_span_table(t, m, loop_cpu_us);
  std::sort(wait_ns.begin(), wait_ns.end());
  const double decided = node_delta(snaps, "cons_decided_local", 0) +
                         node_delta(snaps, "cons_decided_learned", 0);
  const double decided_all = node_sum(snaps, "cons_decided_local") +
                             node_sum(snaps, "cons_decided_learned");
  const abcast::obs::Labels crashed{{"node", std::to_string(kCrashed)}};
  const double send_bytes =
      static_cast<double>(t.bytes[static_cast<std::size_t>(Kind::kSend)]);
  res.metrics.insert(
      res.metrics.end(),
      {
          {"net.send_calls_per_msg", per(calls(Kind::kSend), m), "count"},
          {"net.send_us_per_msg", per(self_us(Kind::kSend), m), "us"},
          {"net.wire_bytes_per_msg", per(send_bytes, m), "B"},
          {"net.send_syscalls_per_msg",
           per(host_delta(snaps, "net_send_syscalls"), m), "count"},
          {"net.datagrams_per_msg",
           per(host_delta(snaps, "net_send_datagrams"), m), "count"},
          {"net.recv_syscalls_per_msg",
           per(host_delta(snaps, "net_recv_syscalls"), m), "count"},
          {"net.send_failures", host_delta(snaps, "net_send_failures"),
           "count"},
          {"net.loop_cpu_us_per_msg", per(loop_cpu_us, m), "us"},
          {"net.unattributed_us_per_msg",
           per(loop_cpu_us -
                   static_cast<double>(t.top_level_ns + t.flush_cpu_ns) / 1e3,
               m),
           "us"},
          {"net.call_wait_p99_us", percentile(wait_ns, 0.99) / 1e3, "us"},
          {"net.gen_late_max_ms", static_cast<double>(late_max_ns) / 1e6,
           "ms"},
          {"storage.puts_per_msg", per(calls(Kind::kPut), m), "count"},
          {"storage.put_us_per_msg", per(dur_us(Kind::kPut), m), "us"},
          {"storage.flushes_per_msg", per(calls(Kind::kFlush), m), "count"},
          {"storage.flush_us_per_msg", per(dur_us(Kind::kFlush), m), "us"},
          {"storage.flush_cpu_us_per_msg",
           per(static_cast<double>(t.flush_cpu_ns) / 1e3, m), "us"},
          {"storage.flush_p99_us", percentile(t.sync_flush_ns, 0.99) / 1e3,
           "us"},
          {"storage.fsyncs_per_msg",
           per(static_cast<double>(t.sync_flush_ns.size()), m), "count"},
          {"storage.bytes_per_msg", per(seg_bytes, m), "B"},
          {"storage.recovery_read_ms", recovery_read_ns / 1e6, "ms"},
          {"consensus.handler_calls_per_msg", per(calls(Kind::kConsensus), m),
           "count"},
          {"consensus.self_us_per_msg", per(self_us(Kind::kConsensus), m),
           "us"},
          {"consensus.instances_per_msg", per(decided, m), "count"},
          {"consensus.attempts_per_instance",
           per(node_sum(snaps, "cons_attempts"), decided), "count"},
          {"consensus.learned_frac",
           per(node_sum(snaps, "cons_decided_learned"), decided_all), "frac"},
          {"core.submit_us_per_msg", per(self_us(Kind::kSubmit), m), "us"},
          {"core.handler_calls_per_msg", per(calls(Kind::kCore), m), "count"},
          {"core.self_us_per_msg", per(self_us(Kind::kCore), m), "us"},
          {"core.gossip_bytes_per_msg",
           per(node_sum(snaps, "ab_gossip_bytes_sent"), m), "B"},
          {"core.msgs_per_round",
           per(node_delta(snaps, "ab_delivered", 0),
               node_delta(snaps, "ab_rounds_completed", 0)),
           "count"},
          {"core.replayed_rounds",
           static_cast<double>(
               after_recovery.value("ab_replayed_rounds", crashed)),
           "count"},
          {"fd.handler_us_per_msg", per(self_us(Kind::kFd), m), "us"},
          {"apps.applies_per_msg", per(calls(Kind::kApply), m), "count"},
          {"apps.apply_us_per_msg", per(self_us(Kind::kApply), m), "us"},
          {"env.timer_calls_per_msg", per(calls(Kind::kTimer), m), "count"},
          {"env.timer_self_us_per_msg", per(self_us(Kind::kTimer), m), "us"},
      });
  c.reset();
  fs::remove_all(args.dir);
  return res;
}

int run(const Args& args) {
  std::printf("# workload %s (%.0f cmds/s offered), seed %llu, repetition "
              "%llu, trace %d: %.2f s of load\n",
              args.workload->name, args.workload->rate,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.rep), args.trace ? 1 : 0,
              args.seconds);
  const RepResult res = run_rep(args);
  for (const auto& metric : res.metrics) {
    std::printf("metric %-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false", res.attempted,
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  return res.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const int rc = run(args);
    fs::remove_all(args.dir);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    fs::remove_all(args.dir);
    return 1;
  }
}
