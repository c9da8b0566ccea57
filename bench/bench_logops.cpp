// E1 — Minimal logging (paper §4.3, abstract).
//
// Claim: the basic Atomic Broadcast protocol performs ZERO log operations
// beyond those of the Consensus black box — the AB column must be exactly 0.
// Each §5 feature then adds precisely its own documented log operations.
//
// E15 — Batched I/O hot path (DESIGN.md §16). Two wall-clock tables:
// logged-ops/s of the segmented log written in passes of α records with a
// flush after each (the deferred sync must beat a sync per put by sharing
// one fdatasync across the pass), and syscalls per delivered message over
// the real UDP transport with sendmmsg/recvmmsg batching off vs on.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "bench_util.hpp"
#include "net/udp_env.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct VariantSpec {
  const char* name;
  core::Options options;
};

std::vector<VariantSpec> variants() {
  core::Options ckpt;
  ckpt.checkpointing = true;
  ckpt.checkpoint_period = millis(250);
  core::Options batching;
  batching.log_unordered = true;
  return {
      {"basic (Fig.2)", core::Options::basic()},
      {"+ckpt (5.1)", ckpt},
      {"+unordered log (5.4)", batching},
      {"alternative (full)", core::Options::alternative()},
  };
}

void run_table() {
  banner("E1: log operations per layer",
         "Claim: basic AB adds 0 log ops beyond Consensus; each extension "
         "adds only its own.");
  Table t({"variant", "n", "msgs", "rounds", "ab ops", "cons ops", "fd ops",
           "ab/msg", "cons/msg", "total/msg"});
  for (const auto& v : variants()) {
    for (const std::uint32_t n : {3u, 5u}) {
      ClusterConfig cfg;
      cfg.sim.n = n;
      cfg.sim.seed = 100 + n;
      cfg.stack.ab = v.options;
      Cluster c(cfg);
      c.start_all();
      const int kMsgs = 200;
      const auto res = run_open_loop(c, kMsgs, 8, millis(20));
      Cluster::LogOps total{};
      for (ProcessId p = 0; p < n; ++p) {
        const auto ops = c.log_ops(p);
        total.ab += ops.ab;
        total.consensus += ops.consensus;
        total.fd += ops.fd;
        total.total += ops.total;
      }
      const double per = static_cast<double>(kMsgs) * n;
      t.row({v.name, std::to_string(n), std::to_string(kMsgs),
             fmt_u64(res.rounds), fmt_u64(total.ab), fmt_u64(total.consensus),
             fmt_u64(total.fd),
             Table::num(static_cast<double>(total.ab) / per, 3),
             Table::num(static_cast<double>(total.consensus) / per, 3),
             Table::num(static_cast<double>(total.total) / per, 3)});
    }
  }
  t.print(std::cout);
  std::printf("\n(ops are summed over all n processes; '/msg' columns are "
              "per delivered message per process)\n");
}

// ---------------------------------------------------------------------------
// E15a — logged-ops throughput of the segmented log (wall clock, real disk).
//
// One writer logs `ops` sealed records in passes of `per_pass`, calling
// flush() after each pass: the shape of UdpHost's barrier, which
// flushes storage once per loop pass before any datagram leaves.
// seglog-eachput pays one append+fdatasync per put (its flush has nothing
// left to sync); seglog-deferred appends, and the flush shares one
// fdatasync across the pass.

struct LogOpsRow {
  std::uint64_t ops = 0;
  double elapsed_ms = 0;
  double ops_per_sec = 0;
  std::uint64_t fsyncs = 0;
};

LogOpsRow drive_passes(SegmentedLogStorage& storage, int passes,
                       int per_pass) {
  const Bytes value(200, 'v');
  const auto start = std::chrono::steady_clock::now();
  int i = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (int r = 0; r < per_pass; ++r, ++i) {
      storage.put("cons/prop/t0/" + std::to_string(i % 128), value);
    }
    storage.flush();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  LogOpsRow row;
  row.ops = static_cast<std::uint64_t>(i);
  row.elapsed_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  row.ops_per_sec = row.elapsed_ms > 0
                        ? 1e3 * static_cast<double>(row.ops) / row.elapsed_ms
                        : 0;
  row.fsyncs = storage.seg_stats().fsyncs;
  return row;
}

void run_logged_ops_table() {
  banner("E15a: logged-ops throughput, one flush per pass of records",
         "Claim: syncing at the per-pass barrier shares one fdatasync across "
         "the pass — seglog-deferred at 4 records per pass issues ops/4 "
         "syncs and beats seglog-eachput's sync per put.");
  const int ops = bench_quick() ? 128 : 1024;
  Table t({"backend", "per pass", "ops", "elapsed ms", "ops/s", "fsyncs"});
  const auto root = std::filesystem::temp_directory_path() /
                    ("abcast_bench_logops_" + std::to_string(::getpid()));
  int cell = 0;
  for (const int per_pass : {1, 4}) {
    for (const char* backend : {"seglog-eachput", "seglog-deferred"}) {
      const auto dir = root / (std::string(backend) + "-" +
                               std::to_string(per_pass) + "-" +
                               std::to_string(cell++));
      std::filesystem::remove_all(dir);
      SegmentedLogConfig cfg;
      cfg.dir = dir;
      cfg.sync = std::string(backend) == "seglog-deferred"
                     ? SyncMode::kDeferred
                     : SyncMode::kEachPut;
      LogOpsRow row;
      {
        SegmentedLogStorage storage(cfg);
        row = drive_passes(storage, ops / per_pass, per_pass);
      }
      std::filesystem::remove_all(dir);
      t.row({backend, std::to_string(per_pass), fmt_u64(row.ops),
             Table::num(row.elapsed_ms, 1), Table::num(row.ops_per_sec, 0),
             fmt_u64(row.fsyncs)});
      Json j;
      j.field("experiment", "logops_throughput")
          .field("backend", backend)
          .field("per_pass", per_pass)
          .field("ops", row.ops)
          .field("elapsed_ms", row.elapsed_ms, 2)
          .field("ops_per_sec", row.ops_per_sec, 1)
          .field("fsyncs", row.fsyncs);
      emit_json_row(j);
    }
  }
  std::filesystem::remove_all(root);
  t.print(std::cout);
  std::printf("\n(in both modes every record is durable once its pass's "
              "flush returns; the deferred mode's win is one fdatasync per "
              "pass, visible in the fsyncs column)\n");
}

// ---------------------------------------------------------------------------
// E15b — syscalls per delivered message over the real UDP transport.
//
// A 3-node RSM cluster on localhost sockets orders `kCmds` commands; the
// in-process NetMetrics counters give exact syscall and datagram counts.
// Unbatched, send syscalls == datagrams by construction; with
// sendmmsg/recvmmsg batching each 3-way multisend and each poll wakeup
// coalesces, so the ratio must drop well below 1.

struct UdpBenchCluster {
  UdpBenchCluster(std::uint64_t seed, const net::UdpBatchConfig& batch)
      : applied(3),
        registry(std::make_unique<obs::MetricsRegistry>()),
        hosts(net::make_local_udp_cluster(
            3, {.seed = seed, .batch = batch, .registry = registry.get()})) {
    for (auto& a : applied) {
      a = std::make_unique<std::atomic<std::uint64_t>>(0);
    }
    const auto factory = [this](Env& env) -> std::unique_ptr<NodeApp> {
      const ProcessId pid = env.self();
      return std::make_unique<apps::RsmNode>(
          env, core::StackConfig{},
          [] { return std::make_unique<apps::KvStore>(); },
          [this, pid](const core::AppMsg&) { applied[pid]->fetch_add(1); });
    };
    for (auto& h : hosts) h->start_node(factory, /*recovering=*/false);
  }

  // Declaration order: counters and registry outlive the hosts (loop threads
  // increment / stay bound until ~UdpHost joins).
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> applied;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::vector<std::unique_ptr<net::UdpHost>> hosts;
};

void run_udp_syscalls_table() {
  banner("E15b: syscalls per delivered message (real UDP, localhost)",
         "Claim: sendmmsg/recvmmsg batching coalesces the per-datagram "
         "syscall tax without changing ordering behavior.");
  const int kCmds = bench_quick() ? 12 : 48;
  Table t({"batched", "cmds", "send sys", "send dgrams", "sys/dgram",
           "recv sys", "recv dgrams"});
  for (const bool batched : {false, true}) {
    net::UdpBatchConfig batch;
    batch.enabled = batched;
    UdpBenchCluster c(batched ? 11 : 10, batch);
    for (int i = 0; i < kCmds; ++i) {
      auto& h = *c.hosts[static_cast<ProcessId>(i % 3)];
      h.call([&h] {
        static_cast<apps::RsmNode*>(h.node_unsafe())
            ->submit(apps::KvCommand::add("n", 1));
      });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    const auto all_applied = [&c, kCmds] {
      for (ProcessId p = 0; p < 3; ++p) {
        if (c.applied[p]->load() < static_cast<std::uint64_t>(kCmds)) {
          return false;
        }
      }
      return true;
    };
    while (!all_applied() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::uint64_t send_sys = 0, send_dgrams = 0, recv_sys = 0,
                  recv_dgrams = 0;
    for (const auto& h : c.hosts) {
      send_sys += h->net_metrics().send_syscalls.load();
      send_dgrams += h->net_metrics().send_datagrams.load();
      recv_sys += h->net_metrics().recv_syscalls.load();
      recv_dgrams += h->net_metrics().recv_datagrams.load();
    }
    const double ratio =
        send_dgrams > 0
            ? static_cast<double>(send_sys) / static_cast<double>(send_dgrams)
            : 0;
    t.row({batched ? "on" : "off", std::to_string(kCmds), fmt_u64(send_sys),
           fmt_u64(send_dgrams), Table::num(ratio, 3), fmt_u64(recv_sys),
           fmt_u64(recv_dgrams)});
    Json j;
    j.field("experiment", "udp_syscalls")
        .field("batched", batched)
        .field("cmds", kCmds)
        .field("converged", all_applied())
        .field("send_syscalls", send_sys)
        .field("send_datagrams", send_dgrams)
        .field("syscalls_per_datagram", ratio, 4)
        .field("recv_syscalls", recv_sys)
        .field("recv_datagrams", recv_dgrams);
    emit_json_row(j);
  }
  t.print(std::cout);
  std::printf("\n(counters summed over all 3 hosts; unbatched sys/dgram is "
              "1.0 by construction — batches of one datagram)\n");
}

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  run_table();
  run_logged_ops_table();
  run_udp_syscalls_table();
  return 0;
}
