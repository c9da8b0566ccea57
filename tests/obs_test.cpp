// Unit tests for the observability subsystem: MetricsRegistry semantics
// (owned instruments, bindings, group RAII, snapshot/diff, export),
// Histogram bucket boundaries, TraceRecorder ring behavior, the trace
// JSONL round-trip including escaping, and counter/trace agreement over a
// full cluster run.
#include <gtest/gtest.h>

#include <sstream>

#include "common/codec.hpp"
#include "common/logging.hpp"
#include "harness/fixture.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace abcast::obs {
namespace {

// ---- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistryTest, CounterGetOrCreateIsStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hits", {{"node", "0"}});
  Counter& b = reg.counter("hits", {{"node", "0"}});
  Counter& other = reg.counter("hits", {{"node", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(MetricsRegistryTest, SnapshotValueAndSumByName) {
  MetricsRegistry reg;
  reg.counter("hits", {{"node", "0"}}).inc(5);
  reg.counter("hits", {{"node", "1"}}).inc(7);
  reg.gauge("depth").set(-3);

  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.value("hits", {{"node", "0"}}), 5);
  EXPECT_EQ(s.value("hits", {{"node", "1"}}), 7);
  EXPECT_EQ(s.value("hits", {{"node", "9"}}), 0);
  EXPECT_EQ(s.sum_by_name("hits"), 12);
  EXPECT_EQ(s.value("depth"), -3);
}

TEST(MetricsRegistryTest, BoundSlotsAppearInSnapshots) {
  MetricsRegistry reg;
  RelaxedU64 slot_a, slot_b;
  MetricsGroup g = reg.group();
  g.bind("field", {{"node", "0"}}, &slot_a);
  g.bind("field", {{"node", "1"}}, &slot_b);

  slot_a = 4;
  slot_b = 6;
  EXPECT_EQ(reg.snapshot().sum_by_name("field"), 10);

  // Two slots bound under the SAME key sum at snapshot time (a recovered
  // incarnation re-binding while the metric name persists).
  RelaxedU64 slot_a2 = 100;
  g.bind("field", {{"node", "0"}}, &slot_a2);
  EXPECT_EQ(reg.snapshot().value("field", {{"node", "0"}}), 104);
}

TEST(MetricsRegistryTest, GroupResetAndDestructionUnbind) {
  MetricsRegistry reg;
  RelaxedU64 slot = 9;
  {
    MetricsGroup g = reg.group();
    g.bind("field", {}, &slot);
    EXPECT_EQ(reg.snapshot().value("field"), 9);
    g.reset();  // detaches: bindings dropped, further bind() is a no-op
    EXPECT_EQ(reg.snapshot().value("field"), 0);
    EXPECT_FALSE(g.attached());
    g.bind("field", {}, &slot);
    EXPECT_EQ(reg.snapshot().value("field"), 0);
  }
  {
    MetricsGroup g = reg.group();
    g.bind("field", {}, &slot);
    EXPECT_EQ(reg.snapshot().value("field"), 9);
  }  // destructor unbinds
  EXPECT_EQ(reg.snapshot().value("field"), 0);
}

TEST(MetricsRegistryTest, DetachedGroupBindIsNoop) {
  MetricsGroup g;
  RelaxedU64 slot = 1;
  EXPECT_FALSE(g.attached());
  g.bind("x", {}, &slot);  // must not crash
  g.reset();
}

TEST(MetricsRegistryTest, MoveTransfersBindings) {
  MetricsRegistry reg;
  RelaxedU64 slot = 2;
  MetricsGroup g = reg.group();
  g.bind("x", {}, &slot);
  MetricsGroup g2 = std::move(g);
  EXPECT_FALSE(g.attached());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(reg.snapshot().value("x"), 2);
  g2.reset();
  EXPECT_EQ(reg.snapshot().value("x"), 0);
}

TEST(MetricsRegistryTest, DiffSubtractsCountersKeepsGauges) {
  MetricsRegistry reg;
  Counter& c = reg.counter("ops");
  Gauge& gg = reg.gauge("depth");
  c.inc(10);
  gg.set(5);
  const Snapshot before = reg.snapshot();
  c.inc(7);
  gg.set(2);
  const Snapshot delta = reg.snapshot().diff(before);
  EXPECT_EQ(delta.value("ops"), 7);
  EXPECT_EQ(delta.value("depth"), 2);  // gauge: current value, not a delta
}

TEST(MetricsRegistryTest, TextAndJsonExport) {
  MetricsRegistry reg;
  reg.counter("ops", {{"node", "0"}}).inc(3);
  reg.histogram("lat").observe(5);

  std::ostringstream text;
  reg.snapshot().write_text(text);
  EXPECT_NE(text.str().find("ops{node=\"0\"} 3"), std::string::npos);

  std::ostringstream json;
  reg.snapshot().write_json(json);
  EXPECT_NE(json.str().find("\"ops|node=0\":3"), std::string::npos);
  EXPECT_NE(json.str().find("\"lat\""), std::string::npos);
}

// ---- Histogram ----------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // bucket_index(v) = bit_width(v): 0 -> 0, 1 -> 1, [2,3] -> 2, [4,7] -> 3.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_bound(64), ~std::uint64_t{0});

  // Every value lands in the bucket whose bound is the first >= it.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 255ull,
                                256ull, 1ull << 40}) {
    const auto b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_bound(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, ObserveAccumulates) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1007u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(10), 1u);  // 1000 in (511, 1023]
}

TEST(HistogramTest, SnapshotCarriesBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("sizes");
  h.observe(3);
  h.observe(3);
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.entries().size(), 1u);
  const SnapshotEntry& e = s.entries()[0];
  EXPECT_EQ(e.type, MetricType::kHistogram);
  EXPECT_EQ(e.count, 2u);
  EXPECT_EQ(e.sum, 6u);
  ASSERT_EQ(e.buckets.size(), 1u);
  EXPECT_EQ(e.buckets[0].first, 2u);
  EXPECT_EQ(e.buckets[0].second, 2u);
}

// ---- TraceRecorder ------------------------------------------------------

TraceEvent ev(const TraceRecorder& rec, std::size_t i) {
  return rec.events().at(i);
}

TEST(TraceRecorderTest, RecordsInOrderWithSeq) {
  TraceRecorder rec(3, 16);
  rec.record(EventKind::kBroadcast, 10, 1, MsgId{3, 1});
  rec.record(EventKind::kDeliver, 20, 1, MsgId{3, 1}, 0);
  EXPECT_EQ(rec.total_recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(ev(rec, 0).kind, EventKind::kBroadcast);
  EXPECT_EQ(ev(rec, 0).node, 3u);
  EXPECT_EQ(ev(rec, 0).seq, 0u);
  EXPECT_EQ(ev(rec, 1).seq, 1u);
  EXPECT_EQ(ev(rec, 1).arg, 0u);
  EXPECT_TRUE(ev(rec, 0).has_msg());
}

TEST(TraceRecorderTest, RingOverwritesOldest) {
  TraceRecorder rec(0, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(EventKind::kGossipSend, static_cast<TimePoint>(i), i);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: rounds 6,7,8,9 survive with their original seq stamps.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].k, 6 + i);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
}

TEST(TraceRecorderTest, ClearResetsState) {
  TraceRecorder rec(0, 4);
  rec.record(EventKind::kCrash, 1);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.record(EventKind::kRecoverBegin, 2);  // seq restarts at 0
  EXPECT_EQ(rec.events().at(0).seq, 0u);
}

TEST(TraceRecorderTest, LogLineUsesClock) {
  TraceRecorder rec(1, 8);
  rec.set_clock([] { return TimePoint{42}; });
  rec.log_line("hello");
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kLogLine);
  EXPECT_EQ(events[0].t, 42);
  EXPECT_EQ(events[0].detail, "hello");
}

TEST(TraceRecorderTest, LoggerTraceRouting) {
  TraceRecorder rec(0, 8);
  route_trace_logs(&rec);
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kTrace));
  ABCAST_LOG(kTrace, "round " << 7);
  route_trace_logs(nullptr);
  ABCAST_LOG(kTrace, "after uninstall");

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].detail.find("round 7"), std::string::npos);
}

// ---- JSONL round-trip ---------------------------------------------------

TEST(TraceJsonTest, RoundTripAllFields) {
  TraceEvent e;
  e.kind = EventKind::kStateTransfer;
  e.node = 2;
  e.seq = 17;
  e.t = 123456789;
  e.k = 9;
  e.msg = MsgId{1, 44};
  e.arg = 1000;
  e.detail = "adopt_chunk";

  std::stringstream ss;
  ss << event_to_json(e) << '\n';
  const auto parsed = parse_trace_jsonl(ss);
  ASSERT_EQ(parsed.size(), 1u);
  const TraceEvent& p = parsed[0];
  EXPECT_EQ(p.kind, e.kind);
  EXPECT_EQ(p.node, e.node);
  EXPECT_EQ(p.seq, e.seq);
  EXPECT_EQ(p.t, e.t);
  EXPECT_EQ(p.k, e.k);
  EXPECT_EQ(p.msg, e.msg);
  EXPECT_EQ(p.arg, e.arg);
  EXPECT_EQ(p.detail, e.detail);
}

TEST(TraceJsonTest, RoundTripEscaping) {
  TraceEvent e;
  e.kind = EventKind::kLogLine;
  e.detail = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  std::stringstream ss;
  ss << event_to_json(e) << '\n';
  // The line must not contain a raw newline inside the JSON string.
  EXPECT_EQ(ss.str().find('\n'), ss.str().size() - 1);
  const auto parsed = parse_trace_jsonl(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].detail, e.detail);
}

TEST(TraceJsonTest, OmitsEmptyOptionalFields) {
  TraceEvent e;
  e.kind = EventKind::kCrash;
  const std::string json = event_to_json(e);
  EXPECT_EQ(json.find("\"msg\""), std::string::npos);
  EXPECT_EQ(json.find("\"detail\""), std::string::npos);
}

TEST(TraceJsonTest, WriteJsonlMatchesEvents) {
  TraceRecorder rec(1, 8);
  rec.record(EventKind::kBroadcast, 5, 0, MsgId{1, 1});
  rec.record(EventKind::kDeliver, 6, 0, MsgId{1, 1}, 0);
  std::stringstream ss;
  rec.write_jsonl(ss);
  const auto parsed = parse_trace_jsonl(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].kind, EventKind::kBroadcast);
  EXPECT_EQ(parsed[1].kind, EventKind::kDeliver);
  EXPECT_EQ(parsed[1].node, 1u);
}

TEST(TraceJsonTest, MalformedLineThrowsWithLineNumber) {
  std::stringstream ss("{\"node\":0,\"kind\":\"crash\"}\nnot json\n");
  try {
    parse_trace_jsonl(ss);
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
}

TEST(TraceJsonTest, UnknownKindRejected) {
  std::stringstream ss("{\"node\":0,\"kind\":\"warp_drive\"}\n");
  EXPECT_THROW(parse_trace_jsonl(ss), CodecError);
}

TEST(TraceJsonTest, KindNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(EventKind::kLogLine); ++i) {
    const auto kind = static_cast<EventKind>(i);
    EventKind back{};
    EXPECT_TRUE(event_kind_from_string(to_string(kind), back));
    EXPECT_EQ(back, kind);
  }
  EventKind out{};
  EXPECT_FALSE(event_kind_from_string("bogus", out));
}

// ---- counter/trace agreement through a chunked catch-up -----------------

// The delivered counter and the kDeliver trace stream must agree on every
// node, including one that catches up through a chunked state-transfer
// session: tail chunks deliver through the same accounting path as normal
// drains. (A snapshot install skips the counter and the trace symmetrically;
// this run turns application checkpoints off so that the whole missed
// history streams as tail chunks.) The lag comes from a partition, not a
// crash — recovery replay legitimately re-delivers without bumping the
// counter, which would make the comparison meaningless.
TEST(TraceMetricsAgreement, DeliveredCounterMatchesTraceThroughCatchUp) {
  harness::ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = 77;
  cfg.sim.trace_capacity = 1 << 16;
  cfg.stack.ab = core::Options::alternative();
  cfg.stack.ab.checkpoint_period = millis(50);
  cfg.stack.ab.delta = 2;
  cfg.sim.net.max_datagram_bytes = 512;  // several chunks even for tiny state
  // No application checkpoints: the missed history streams as tail chunks
  // rather than folding into a snapshot.
  cfg.stack.ab.app_checkpointing = false;
  harness::Cluster c(cfg);
  c.start_all();

  auto warm = c.broadcast_many(0, 2);
  ASSERT_TRUE(c.await_delivery(warm));

  c.sim().partition({0, 1});  // node 2 falls far behind without crashing
  std::vector<MsgId> ids;
  for (int b = 0; b < 10; ++b) {
    ids.push_back(c.broadcast(static_cast<ProcessId>(b % 2),
                              Bytes(96, static_cast<std::uint8_t>(b))));
    ASSERT_TRUE(c.await_delivery({ids.back()}, {0, 1}, seconds(60)));
  }
  c.sim().run_for(millis(300));  // checkpoints truncate the consensus log
  c.sim().heal_partition();
  ASSERT_TRUE(c.await_delivery(ids, {2}, seconds(120)));
  ASSERT_TRUE(c.await_quiesced(seconds(120)));
  ASSERT_EQ(c.trace_dropped(), 0u);

  EXPECT_GE(c.stack(2)->ab().metrics().state_chunks_applied, 2u);
  std::vector<std::uint64_t> traced(3, 0);
  for (const auto& e : c.collect_trace()) {
    if (e.kind == EventKind::kDeliver) traced[e.node] += 1;
  }
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.stack(p)->ab().metrics().delivered, traced[p])
        << "node " << p;
  }
}

}  // namespace
}  // namespace abcast::obs
