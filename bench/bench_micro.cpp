// Wall-clock microbenchmarks of the hot paths underneath the protocol:
// codec, CRC, storage, scheduler, failure-detector tick, and one full
// simulated round. These are the constants behind every virtual-time
// experiment table.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "core/app_msg.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "storage/mem_storage.hpp"
#include "storage/segment_log_storage.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

using namespace abcast;
using namespace abcast::bench;

namespace {

void BM_CodecEncodeBatch(benchmark::State& state) {
  std::vector<core::AppMsg> batch;
  for (int i = 0; i < state.range(0); ++i) {
    batch.push_back({MsgId{0, static_cast<std::uint64_t>(i + 1)},
                     Bytes(128, 'x')});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecEncodeBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_CodecDecodeBatch(benchmark::State& state) {
  std::vector<core::AppMsg> batch;
  for (int i = 0; i < state.range(0); ++i) {
    batch.push_back({MsgId{0, static_cast<std::uint64_t>(i + 1)},
                     Bytes(128, 'x')});
  }
  const Bytes encoded = core::encode_batch(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_batch(encoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecDecodeBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536);

void BM_MemStoragePut(benchmark::State& state) {
  MemStableStorage storage;
  const Bytes value(256, 'v');
  std::uint64_t i = 0;
  for (auto _ : state) {
    storage.put("cons/prop/" + std::to_string(i++ % 1000), value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemStoragePut);

// The segmented-log backend (DESIGN.md §16): one buffered append per put.
// E15a (bench_logops) keeps the file-per-record backend's fsync row as the
// baseline it is measured against.
void BM_SegLogPut(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("abcast_bench_sl_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    SegmentedLogConfig cfg;
    cfg.dir = dir;
    cfg.sync = SyncMode::kNone;
    SegmentedLogStorage storage(cfg);
    const Bytes value(256, 'v');
    std::uint64_t i = 0;
    for (auto _ : state) {
      storage.put("cons/prop/" + std::to_string(i++ % 100), value);
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegLogPut);

void BM_SegLogPutFsync(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("abcast_bench_slf_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    SegmentedLogConfig cfg;
    cfg.dir = dir;
    cfg.sync = SyncMode::kEachPut;
    SegmentedLogStorage storage(cfg);
    const Bytes value(256, 'v');
    std::uint64_t i = 0;
    for (auto _ : state) {
      storage.put("cons/prop/" + std::to_string(i++ % 100), value);
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegLogPutFsync);

// get() reads each value back from its segment: a slice of the 64 KiB
// read-ahead window while keys come in about append order (replay's scan),
// a window refill per miss when they come at random. 10k records of 128 B.
void seglog_get(benchmark::State& state, bool sequential) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("abcast_bench_slg_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    SegmentedLogConfig cfg;
    cfg.dir = dir;
    cfg.sync = SyncMode::kNone;
    SegmentedLogStorage storage(cfg);
    constexpr std::size_t kRecords = 10000;
    std::vector<std::string> keys;
    const Bytes value(128, 'v');
    for (std::size_t i = 0; i < kRecords; ++i) {
      char key[40];
      std::snprintf(key, sizeof key, "cons/dec/%020zu", i);
      keys.emplace_back(key);
      storage.put(keys.back(), value);
    }
    if (!sequential) std::shuffle(keys.begin(), keys.end(), std::mt19937(1));
    std::size_t i = 0;
    for (auto _ : state) {
      auto v = storage.get(keys[i++ % kRecords]);
      benchmark::DoNotOptimize(v);
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations());
}

void BM_SegLogGetSequential(benchmark::State& state) {
  seglog_get(state, /*sequential=*/true);
}
BENCHMARK(BM_SegLogGetSequential);

void BM_SegLogGetRandom(benchmark::State& state) {
  seglog_get(state, /*sequential=*/false);
}
BENCHMARK(BM_SegLogGetRandom);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(i, [] {});
    }
    while (s.step()) {
    }
    benchmark::DoNotOptimize(s.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerChurn);

// ---- Observability hot-path overhead (see DESIGN.md "Observability") ----

void BM_MetricsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench_counter", {{"node", "0"}});
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsBoundSlotInc(benchmark::State& state) {
  // The protocol's actual hot path: a plain field increment on a struct the
  // registry holds a read-only binding into. The binding must cost nothing
  // here — it is only read at snapshot time. The slot is a RelaxedU64, so
  // the increment is a relaxed fetch_add.
  obs::MetricsRegistry registry;
  RelaxedU64 slot;
  obs::MetricsGroup group = registry.group();
  group.bind("bench_bound", {{"node", "0"}}, &slot);
  for (auto _ : state) {
    slot += 1;
    benchmark::DoNotOptimize(slot);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsBoundSlotInc);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("bench_hist");
  std::uint64_t v = 0;
  for (auto _ : state) {
    hist.observe(v++ & 0xFFF);
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_TraceRecord(benchmark::State& state) {
  obs::TraceRecorder rec(0, 4096);
  TimePoint t = 0;
  for (auto _ : state) {
    rec.record(obs::EventKind::kDeliver, t++, 1, MsgId{0, 1}, 42);
  }
  benchmark::DoNotOptimize(rec.total_recorded());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecord);

void BM_SimulatedRoundTrip(benchmark::State& state) {
  // One full ordering round (broadcast -> consensus -> delivery at all 3
  // processes), including cluster construction.
  for (auto _ : state) {
    harness::ClusterConfig cfg;
    cfg.sim.n = 3;
    cfg.sim.seed = 1;
    harness::Cluster c(cfg);
    c.start_all();
    const MsgId id = c.broadcast(0);
    c.await_delivery({id});
    benchmark::DoNotOptimize(c.oracle().global_order().size());
  }
}
BENCHMARK(BM_SimulatedRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
