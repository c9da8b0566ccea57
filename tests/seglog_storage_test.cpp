// Segmented-log backend (DESIGN.md §16): round-trip + reopen recovery,
// replay's damage handling (torn tails and CRC failures), segment roll,
// compaction, reads through the index and its read-ahead window, the
// deferred flush barrier and its sync accounting, and the crash-point
// sweep pinning the live index and recovery byte-identical to an in-memory
// reference fed the same faults.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "storage/faulty_storage.hpp"
#include "storage/mem_storage.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
namespace fs = std::filesystem;

namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("abcast_seglog_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

SegmentedLogConfig cfg_at(const fs::path& dir, SyncMode sync) {
  SegmentedLogConfig cfg;
  cfg.dir = dir;
  cfg.sync = sync;
  return cfg;
}

/// Every key/value pair a backend holds, for whole-store comparison.
std::map<std::string, Bytes> dump(StableStorage& s) {
  std::map<std::string, Bytes> out;
  for (const auto& k : s.keys_with_prefix("")) {
    if (auto v = s.get(k)) out.emplace(k, *v);
  }
  return out;
}

/// Key + value bytes of a record map: what footprint_bytes() must report.
std::uint64_t live_bytes(const std::map<std::string, Bytes>& records) {
  std::uint64_t total = 0;
  for (const auto& [key, value] : records) total += key.size() + value.size();
  return total;
}

/// The oldest segment file in `dir` (segment names sort by id).
fs::path first_segment(const fs::path& dir) {
  fs::path first;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (first.empty() || e.path().filename() < first.filename()) {
      first = e.path();
    }
  }
  return first;
}

void flip_byte(const fs::path& file, std::uint64_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  const auto pos = static_cast<std::streamoff>(offset);
  f.seekg(pos);
  char c = 0;
  f.get(c);
  f.seekp(pos);
  f.put(static_cast<char>(c ^ 0x40));
}

}  // namespace

TEST(SegLog, PutGetEraseRoundTrip) {
  TempDir dir;
  SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kEachPut));
  EXPECT_FALSE(s.get("k").has_value());
  s.put("k", bytes_of("v1"));
  EXPECT_EQ(s.get("k"), bytes_of("v1"));
  s.put("k", bytes_of("v2"));  // overwrite
  EXPECT_EQ(s.get("k"), bytes_of("v2"));
  s.erase("k");
  EXPECT_FALSE(s.get("k").has_value());
  EXPECT_EQ(s.stats().put_ops, 2u);
  EXPECT_EQ(s.stats().erase_ops, 1u);
}

TEST(SegLog, PrefixEnumerationIsSortedAndScoped) {
  TempDir dir;
  SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kNone));
  s.put("cons/prop/2", {});
  s.put("cons/prop/1", {});
  s.put("ab/agreed/1", {});
  const auto keys = s.keys_with_prefix("cons/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "cons/prop/1");
  EXPECT_EQ(keys[1], "cons/prop/2");
  EXPECT_TRUE(s.keys_with_prefix("fd/").empty());
}

TEST(SegLog, ReopenRecoversPutsOverwritesAndErases) {
  TempDir dir;
  std::map<std::string, Bytes> expect;
  const std::string hostile = "a/b c%d\xE2\x82\xAC!";
  {
    SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kEachPut));
    for (int i = 0; i < 50; ++i) {
      const std::string k = "key/" + std::to_string(i % 17);
      const Bytes v = bytes_of("value-" + std::to_string(i));
      s.put(k, v);
      expect[k] = v;
    }
    s.erase("key/3");
    expect.erase("key/3");
    s.erase("missing");  // erase-of-absent must not log a tombstone
    // Keys are opaque bytes inside a record: no escaping, no file names.
    s.put(hostile, bytes_of("v"));
    expect[hostile] = bytes_of("v");
    EXPECT_EQ(s.footprint_bytes(), live_bytes(expect));
  }
  SegmentedLogStorage reopened(cfg_at(dir.path(), SyncMode::kEachPut));
  EXPECT_EQ(dump(reopened), expect);
  EXPECT_EQ(reopened.keys_with_prefix("a/"), std::vector<std::string>{hostile});
  EXPECT_EQ(reopened.footprint_bytes(), live_bytes(expect));
  EXPECT_GT(reopened.seg_stats().recovered_records, 0u);
  EXPECT_EQ(reopened.seg_stats().torn_tail_records, 0u);
}

// Replay stops a segment at its first record that fails the length check (a
// torn append, the damage a crash leaves) or the CRC check (a flipped byte),
// keeps the records before it, truncates the file there and goes on with the
// later segments. Each input damages the first segment, which holds "a" then
// "b".
TEST(SegLog, TornTailIsTruncatedAndRecoveryContinues) {
  enum class Damage { kTornAppend, kFlipInLastRecord, kFlipInFirstRecord };
  for (const auto damage : {Damage::kTornAppend, Damage::kFlipInLastRecord,
                            Damage::kFlipInFirstRecord}) {
    SCOPED_TRACE("damage " + std::to_string(static_cast<int>(damage)));
    TempDir dir;
    std::map<std::string, Bytes> expect = {{"a", bytes_of("alpha")},
                                           {"b", bytes_of("beta")}};
    std::uint64_t b_starts_at = 0;
    {
      SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kEachPut));
      s.put("a", bytes_of("alpha"));
      b_starts_at = s.disk_bytes();
      s.put("b", bytes_of("beta"));
    }
    if (damage == Damage::kFlipInFirstRecord) {
      // Every open starts a fresh segment, so "c" lands in a later one.
      SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kEachPut));
      s.put("c", bytes_of("gamma"));
      expect["c"] = bytes_of("gamma");
    }
    const fs::path first = first_segment(dir.path());
    ASSERT_FALSE(first.empty());
    const std::uint64_t intact_size = fs::file_size(first);
    std::uint64_t kept_size = intact_size;
    // A value is the last field before a record's 4-byte CRC trailer, so 5
    // bytes before a record's end is the last byte of its value.
    switch (damage) {
      case Damage::kTornAppend: {
        std::ofstream f(first, std::ios::binary | std::ios::app);
        const char garbage[] =
            "\x40\x00\x00\x00partial-record-that-never-finis";
        f.write(garbage, sizeof garbage - 1);
        break;
      }
      case Damage::kFlipInLastRecord:
        flip_byte(first, intact_size - 5);
        kept_size = b_starts_at;
        expect.erase("b");
        break;
      case Damage::kFlipInFirstRecord:
        flip_byte(first, b_starts_at - 5);
        kept_size = 0;
        expect.erase("a");
        expect.erase("b");
        break;
    }
    {
      SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kEachPut));
      EXPECT_EQ(dump(s), expect);
      EXPECT_EQ(s.seg_stats().torn_tail_records, 1u);
      EXPECT_EQ(fs::file_size(first), kept_size);
      s.put("d", bytes_of("delta"));  // keep appending after the repair
      expect["d"] = bytes_of("delta");
    }
    SegmentedLogStorage again(cfg_at(dir.path(), SyncMode::kEachPut));
    EXPECT_EQ(again.seg_stats().torn_tail_records, 0u);  // damage truncated
    EXPECT_EQ(dump(again), expect);
  }
}

// Rolls spread records across files. Each roll seals the outgoing segment at
// a sync point, and the records that sync made durable are not counted again
// at the next one: every record rides exactly one fdatasync, so
// group_commits + fsyncs == appends in both syncing modes.
TEST(SegLog, SegmentRollSpreadsRecordsAcrossFiles) {
  for (const auto mode : {SyncMode::kEachPut, SyncMode::kDeferred}) {
    TempDir dir;
    auto cfg = cfg_at(dir.path(), mode);
    cfg.segment_bytes = 512;  // force frequent rolls
    cfg.compact_min_bytes = 1 << 30;  // keep compaction out of this test
    std::map<std::string, Bytes> expect;
    {
      SegmentedLogStorage s(cfg);
      for (int i = 0; i < 40; ++i) {
        const std::string k = "k/" + std::to_string(i);
        const Bytes v = bytes_of(std::string(64, 'x'));
        s.put(k, v);
        expect[k] = v;
      }
      s.flush();
      const auto& st = s.seg_stats();
      EXPECT_GT(st.segments_created, 3u);
      EXPECT_EQ(st.group_commits + st.fsyncs, st.appends);
      if (mode == SyncMode::kEachPut) {
        EXPECT_EQ(st.group_commits, 0u);
      }
    }
    SegmentedLogStorage reopened(cfg);
    EXPECT_EQ(dump(reopened), expect);
  }
}

TEST(SegLog, CompactionReclaimsDeadBytesAndSurvivesReopen) {
  TempDir dir;
  auto cfg = cfg_at(dir.path(), SyncMode::kEachPut);
  cfg.segment_bytes = 4096;
  cfg.compact_min_bytes = 2048;
  cfg.compact_dead_ratio = 0.5;
  {
    SegmentedLogStorage s(cfg);
    // Hammer a handful of keys: almost everything on disk is dead bytes.
    for (int i = 0; i < 400; ++i) {
      s.put("hot/" + std::to_string(i % 4),
            bytes_of("payload-" + std::to_string(i)));
    }
    EXPECT_GT(s.seg_stats().compactions, 0u);
    // Compaction bounds the log near the live set, far below the ~400
    // records appended.
    EXPECT_LT(s.disk_bytes(), 8u * 1024u);
    EXPECT_EQ(s.get("hot/3"), bytes_of("payload-399"));
  }
  SegmentedLogStorage reopened(cfg);
  ASSERT_EQ(reopened.keys_with_prefix("hot/").size(), 4u);
  EXPECT_EQ(reopened.get("hot/0"), bytes_of("payload-396"));
  EXPECT_EQ(reopened.get("hot/3"), bytes_of("payload-399"));
}

// Memory holds an index, not values: every get() reads its value back from
// a segment file, through a 64 KiB read-ahead window or, for a larger
// value, directly. A read right after a write must see it whether or not
// the window was filled from that part of the file before the write.
TEST(SegLog, GetReadsValuesBackThroughTheWindow) {
  TempDir dir;
  const auto cfg = cfg_at(dir.path(), SyncMode::kNone);
  std::map<std::string, Bytes> expect;
  {
    SegmentedLogStorage s(cfg);
    const auto put = [&](const std::string& k, const Bytes& v) {
      s.put(k, v);
      expect[k] = v;
    };
    put("a", bytes_of("first"));
    put("b", bytes_of("second"));
    put("c", bytes_of("third"));
    EXPECT_EQ(s.get("a"), expect["a"]);  // fills the window from a to EOF
    EXPECT_EQ(s.get("c"), expect["c"]);  // inside the window
    put("d", bytes_of("fourth"));        // past what the window read
    EXPECT_EQ(s.get("d"), expect["d"]);
    EXPECT_EQ(s.get("b"), expect["b"]);  // before the window's start
    put("b", bytes_of("second, overwritten"));
    EXPECT_EQ(s.get("b"), expect["b"]);
    put("empty", Bytes{});
    EXPECT_EQ(s.get("empty"), Bytes{});
    Bytes big(100 * 1024);  // larger than the window
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i * 7);
    }
    put("big", big);
    put("e", bytes_of("after the big one"));
    EXPECT_EQ(s.get("big"), big);
    EXPECT_EQ(s.get("e"), expect["e"]);
    EXPECT_EQ(dump(s), expect);
    EXPECT_EQ(s.footprint_bytes(), live_bytes(expect));
  }
  SegmentedLogStorage reopened(cfg);
  EXPECT_EQ(reopened.get("big"), expect["big"]);
  EXPECT_EQ(dump(reopened), expect);
  EXPECT_EQ(reopened.footprint_bytes(), live_bytes(expect));
}

// Values come back from the right segment after rolls spread the records
// across files, after compaction moved the live ones into a fresh segment
// and unlinked the old ones, and after a reopen indexed all of it again.
TEST(SegLog, GetAfterRollCompactionAndReopen) {
  TempDir dir;
  auto cfg = cfg_at(dir.path(), SyncMode::kNone);
  cfg.segment_bytes = 2048;
  cfg.compact_min_bytes = 16 * 1024;
  std::map<std::string, Bytes> expect;
  {
    SegmentedLogStorage s(cfg);
    for (int i = 0; i < 60; ++i) {
      const std::string k = "k/" + std::to_string(i);
      expect[k] = bytes_of("v" + std::to_string(i) + std::string(100, 'r'));
      s.put(k, expect[k]);
    }
    EXPECT_GT(s.seg_stats().segments_created, 3u);
    EXPECT_EQ(s.seg_stats().compactions, 0u);
    EXPECT_EQ(dump(s), expect);  // after rolls
    // Overwrite a few keys until compaction runs; read after each write.
    for (int i = 0; s.seg_stats().compactions < 2; ++i) {
      ASSERT_LT(i, 10000);
      const std::string k = "k/" + std::to_string(i % 7);
      expect[k] = bytes_of("w" + std::to_string(i) + std::string(static_cast<std::size_t>(i % 50), 'o'));
      s.put(k, expect[k]);
      ASSERT_EQ(s.get(k), expect[k]) << "write " << i;
    }
    EXPECT_EQ(dump(s), expect);  // after compaction
    s.erase("k/59");
    expect.erase("k/59");
    EXPECT_EQ(dump(s), expect);
  }
  SegmentedLogStorage reopened(cfg);
  EXPECT_EQ(dump(reopened), expect);
  // Reads in reverse key order refill the window at every segment switch.
  for (auto it = expect.rbegin(); it != expect.rend(); ++it) {
    EXPECT_EQ(reopened.get(it->first), it->second) << it->first;
  }
}

// The index holds a key inline below 31 bytes and allocates a longer one:
// both kinds sort, enumerate, overwrite and erase alike, before and after
// a reopen.
TEST(SegLog, IndexHoldsShortAndLongKeys) {
  TempDir dir;
  const auto cfg = cfg_at(dir.path(), SyncMode::kNone);
  std::map<std::string, Bytes> expect;
  {
    SegmentedLogStorage s(cfg);
    // Keys of 2, 3, 29, 30 (the longest inline), 31, 32 and 202 bytes.
    for (const std::size_t len : std::vector<std::size_t>{0, 1, 27, 28, 29,
                                                          30, 200}) {
      const std::string k = "k/" + std::string(len, static_cast<char>('a' + len % 26));
      expect[k] = bytes_of("v" + std::to_string(len));
      s.put(k, expect[k]);
    }
    const std::string long_key = "k/" + std::string(200, 's');
    s.put(long_key, bytes_of("again"));
    expect[long_key] = bytes_of("again");
    const std::string erased = "k/" + std::string(30, 'e');
    s.erase(erased);
    expect.erase(erased);
    std::vector<std::string> keys;
    for (const auto& [k, v] : expect) keys.push_back(k);
    EXPECT_EQ(s.keys_with_prefix("k/"), keys);
    EXPECT_EQ(dump(s), expect);
    EXPECT_EQ(s.footprint_bytes(), live_bytes(expect));
  }
  SegmentedLogStorage reopened(cfg);
  EXPECT_EQ(dump(reopened), expect);
  EXPECT_EQ(reopened.footprint_bytes(), live_bytes(expect));
}

TEST(SegLog, DeferredModeSyncsOnlyAtFlush) {
  TempDir dir;
  SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kDeferred));
  for (int i = 0; i < 10; ++i) {
    s.put("k" + std::to_string(i), bytes_of("v"));
  }
  EXPECT_EQ(s.seg_stats().fsyncs, 0u);  // puts never sync
  s.flush();
  const auto after_first = s.seg_stats().fsyncs;
  EXPECT_GE(after_first, 1u);
  // 10 records rode that one barrier: 9 shared a sync they did not issue.
  EXPECT_EQ(s.seg_stats().group_commits, 9u);
  s.flush();  // nothing dirty: no extra syscall
  EXPECT_EQ(s.seg_stats().fsyncs, after_first);
}

// The oracle sweep: the same op sequence, the same seeded FaultyStorage
// decorator, the same armed crash-point — run over the segmented log and
// over MemStableStorage. FaultyStorage tears a write in the decorator (the
// backend gets a complete put of damaged bytes), so the in-memory store
// holds exactly what a correct recovery must rebuild. Both must crash at
// the same op, and the log reopened from disk must hold a byte-identical
// record map. 100 seeds × 3 crash phases exercises before-op, torn-write,
// and after-op windows across puts, overwrites, and erases.
TEST(SegLog, CrashPointSweepRecoversIdenticallyToMemReference) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    TempDir seg_dir;
    // Script the op sequence up front (so both backends replay it
    // identically) from a generator the fault RNG never touches.
    Rng script(seed * 2654435761ull + 17);
    const int total_ops = static_cast<int>(script.uniform(8, 40));
    const int crash_at = static_cast<int>(script.uniform(1, total_ops));
    const auto phase = static_cast<CrashPhase>(seed % 3);

    struct Op {
      bool is_erase;
      std::string key;
      Bytes value;
    };
    std::vector<Op> ops;
    for (int i = 0; i < total_ops; ++i) {
      Op op;
      op.is_erase = script.chance(0.2);
      op.key = "k/" + std::to_string(script.uniform(0, 9));
      if (!op.is_erase) {
        op.value = bytes_of(
            "v-" + std::to_string(script.uniform(0, 1000)) +
            std::string(static_cast<std::size_t>(script.uniform(0, 64)), 'z'));
      }
      ops.push_back(std::move(op));
    }

    FaultyStorage mem(std::make_unique<MemStableStorage>(),
                      Rng(seed + 1));  // same fault stream: identical tears
    mem.arm_crash_at_op(static_cast<std::uint64_t>(crash_at), phase);
    {
      FaultyStorage seg(std::make_unique<SegmentedLogStorage>(
                            cfg_at(seg_dir.path(), SyncMode::kEachPut)),
                        Rng(seed + 1));
      seg.arm_crash_at_op(static_cast<std::uint64_t>(crash_at), phase);

      for (const auto& op : ops) {
        bool seg_crashed = false;
        bool mem_crashed = false;
        try {
          if (op.is_erase) {
            seg.erase(op.key);
          } else {
            seg.put(op.key, op.value);
          }
        } catch (const SimulatedCrash&) {
          seg_crashed = true;
        }
        try {
          if (op.is_erase) {
            mem.erase(op.key);
          } else {
            mem.put(op.key, op.value);
          }
        } catch (const SimulatedCrash&) {
          mem_crashed = true;
        }
        ASSERT_EQ(seg_crashed, mem_crashed) << "seed " << seed;
        if (seg_crashed) break;
      }
      // The live index reads back what the reference holds.
      ASSERT_EQ(dump(seg.inner()), dump(mem.inner()))
          << "live divergence at seed " << seed << " phase "
          << static_cast<int>(phase) << " crash_at " << crash_at;
    }

    // "Recover": reopen the log from its on-disk state alone.
    SegmentedLogStorage seg(cfg_at(seg_dir.path(), SyncMode::kEachPut));
    ASSERT_EQ(dump(seg), dump(mem.inner()))
        << "recovery divergence at seed " << seed << " phase "
        << static_cast<int>(phase) << " crash_at " << crash_at;
  }
}

// ScopedStorage/FaultyStorage/TracingStorage forward the flush barrier all
// the way down to the backend (the deferred-sync soundness chain).
TEST(SegLog, FlushForwardsThroughDecoratorChain) {
  TempDir dir;
  FaultyStorage faulty(std::make_unique<SegmentedLogStorage>(
                           cfg_at(dir.path(), SyncMode::kDeferred)),
                       Rng(7));
  auto* seg = static_cast<SegmentedLogStorage*>(&faulty.inner());
  faulty.put("x", bytes_of("y"));
  EXPECT_EQ(seg->seg_stats().fsyncs, 0u);
  const auto ops_before = faulty.op_count();
  faulty.flush();
  EXPECT_EQ(seg->seg_stats().fsyncs, 1u);
  // flush is a barrier, not a log op: the crash-point clock must not tick.
  EXPECT_EQ(faulty.op_count(), ops_before);
}
