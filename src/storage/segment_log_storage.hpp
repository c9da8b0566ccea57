// Segmented-log stable storage: the on-disk backend (DESIGN.md §16).
//
// Every put/erase appends one checksummed sealed record to the current
// segment file, and durability is a *sync point* — one fdatasync that
// covers every record appended since the previous one:
//
//   * SyncMode::kEachPut  — fdatasync inside every put/erase (the paper's
//                           "log completes before returning", one sync per
//                           op, for a caller that never flushes);
//   * SyncMode::kDeferred — put never syncs; the host calls flush() at its
//                           I/O barrier (net::UdpHost, once per pass,
//                           before any datagram leaves), which coalesces one
//                           fdatasync across every record the pass appended;
//   * SyncMode::kNone     — no syncing (benchmarks, simulator backends).
//
// Memory holds an index of the live records (key -> segment, offset, sizes),
// not their values: get() reads a value back through one read-ahead window,
// which never goes stale since a record never changes once appended. get()
// checks no CRC: replay at open checks every record's seal, and each
// protocol record carries its own seal that its reader checks. Recovery
// scans the segments in id order, indexing put/erase records and stopping a
// segment's scan at the first record whose length or CRC-32 seal fails; the
// file is truncated there. That is exact for a torn append (the operation
// never completed), the only damage a crash causes; it is no defence
// against media corruption, since one bad byte in a non-final record drops
// every later record of its segment (DESIGN.md §8.2). Overwrites and
// tombstones leave dead bytes behind; when the dead ratio crosses the
// configured threshold, compaction copies the live records into a fresh
// segment and unlinks the old ones (crash-safe: old segments are removed
// only after the replacement is durable, and replaying both is idempotent
// because later segments win).
//
// Thread safety: every method is internally locked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "env/stable_storage.hpp"

namespace abcast {

enum class SyncMode : std::uint8_t {
  kNone,      // never sync (benchmarks, sim backends)
  kEachPut,   // fdatasync inside every put/erase
  kDeferred,  // sync only at flush(); host must order flush before sends
};

struct SegmentedLogConfig {
  std::filesystem::path dir;
  SyncMode sync = SyncMode::kEachPut;
  /// Roll to a new segment once the current one exceeds this many bytes.
  std::uint64_t segment_bytes = 8ull << 20;
  /// Compact when dead bytes exceed this fraction of the on-disk log...
  double compact_dead_ratio = 0.5;
  /// ...but never below this absolute size (tiny logs aren't worth it).
  std::uint64_t compact_min_bytes = 256 * 1024;
};

struct SegLogStats {
  std::uint64_t appends = 0;        // records written (puts + tombstones)
  std::uint64_t bytes_appended = 0; // framed record bytes, incl. compaction
  std::uint64_t fsyncs = 0;         // fdatasync calls, all causes
  std::uint64_t group_commits = 0;  // records that rode another's sync
  std::uint64_t segments_created = 0;
  std::uint64_t compactions = 0;
  std::uint64_t recovered_records = 0;  // valid records replayed at open
  std::uint64_t torn_tail_records = 0;  // segments truncated at open
};

class SegmentedLogStorage final : public StableStorage {
 public:
  /// Opens (creating if needed) the log rooted at `cfg.dir` and replays the
  /// existing segments. Throws StorageIoError when the directory or a
  /// segment cannot be opened.
  explicit SegmentedLogStorage(SegmentedLogConfig cfg);
  ~SegmentedLogStorage() override;

  // ---- StableStorage -----------------------------------------------------
  void put(std::string_view key, const Bytes& value) override;
  std::optional<Bytes> get(std::string_view key) override;
  void erase(std::string_view key) override;
  void flush() override;
  std::vector<std::string> keys_with_prefix(std::string_view prefix) override;
  std::uint64_t footprint_bytes() override;
  const StorageStats& stats() const override { return stats_; }

  const SegLogStats& seg_stats() const { return seg_stats_; }
  const std::filesystem::path& root() const { return cfg_.dir; }
  /// On-disk bytes across all live segments (dead records included until
  /// compaction reclaims them).
  std::uint64_t disk_bytes() const;

 private:
  /// A key of the index, held inline up to 30 bytes (as every protocol key
  /// is), so the index allocates only its node.
  class IndexKey {
   public:
    explicit IndexKey(std::string_view s) {
      if (s.size() > sizeof rep_.small.chars) {
        rep_.large = {kHeap, new std::string(s)};
        return;
      }
      rep_.small.len = static_cast<std::uint8_t>(s.size());
      std::copy(s.begin(), s.end(), rep_.small.chars);
    }
    IndexKey(IndexKey&& o) noexcept : rep_(o.rep_) { o.rep_.small.len = 0; }
    ~IndexKey() { if (rep_.small.len == kHeap) delete rep_.large.heap; }
    std::string_view view() const {
      if (rep_.small.len == kHeap) return *rep_.large.heap;
      return {rep_.small.chars, rep_.small.len};
    }
    friend bool operator<(const IndexKey& a, const IndexKey& b) {
      return a.view() < b.view();
    }
    friend bool operator<(const IndexKey& a, std::string_view b) {
      return a.view() < b;
    }
    friend bool operator<(std::string_view a, const IndexKey& b) {
      return a < b.view();
    }

   private:
    static constexpr std::uint8_t kHeap = 0xff;
    // `len` leads both members, so it can be read whichever one is active.
    union Rep {
      struct {
        std::uint8_t len;
        char chars[30];
      } small;
      struct {
        std::uint8_t len;  // kHeap
        std::string* heap;
      } large;
    } rep_{};
  };

  /// Where a live put record sits. Its value is the record's last
  /// `value_size` bytes before the 4-byte CRC trailer.
  struct Loc {
    std::uint64_t segment = 0;
    std::uint64_t offset = 0;      // of the framed record in its segment
    std::uint32_t disk_size = 0;   // framed record size
    std::uint32_t value_size = 0;
  };

  /// Reads larger than this bypass the read-ahead window.
  static constexpr std::size_t kWindowBytes = 64 * 1024;

  // All private helpers assume mu_ is held.
  /// Makes every record appended since the last sync point durable with one
  /// fdatasync of the current segment (nothing to do when none are pending;
  /// kNone only forgets them).
  void sync_point();
  void open_fresh_segment();
  void append_record(std::string_view key, const Bytes* value);
  Bytes frame_record(std::string_view key, const Bytes* value) const;
  void write_all(int fd, const Bytes& data, const char* what);
  void sync_fd(int fd, const char* what);
  /// Appends the `len` bytes at `offset` of segment `segment` to `out`.
  void read_at(std::uint64_t segment, std::uint64_t offset, std::size_t len,
               Bytes& out);
  void maybe_compact();
  void compact();
  void replay_segments();
  /// Indexes one segment file; returns the byte offset of the first damaged
  /// record (== file size when the whole segment is clean).
  std::uint64_t replay_one(std::uint64_t id, const std::filesystem::path& path);
  void sync_dir();

  SegmentedLogConfig cfg_;
  StorageStats stats_;
  SegLogStats seg_stats_;

  mutable std::mutex mu_;
  std::map<IndexKey, Loc, std::less<>> records_;
  std::uint64_t live_disk_bytes_ = 0;   // framed size of live put records
  std::uint64_t total_disk_bytes_ = 0;  // framed size of everything on disk
  std::uint64_t next_segment_ = 0;
  std::uint64_t current_segment_bytes_ = 0;
  // One fd per live segment, by id; the last is fd_, open read-write.
  std::map<std::uint64_t, int> segment_fds_;
  int fd_ = -1;
  // Records appended since the last sync point. The roll seals the outgoing
  // segment at a sync point, so they all sit on fd_.
  std::uint64_t unsynced_ = 0;
  // The read-ahead window: window_len_ bytes of window_segment_ from
  // window_offset_, allocated at the first read.
  std::unique_ptr<std::uint8_t[]> window_;
  std::uint64_t window_segment_ = 0;
  std::uint64_t window_offset_ = 0;
  std::size_t window_len_ = 0;
};

}  // namespace abcast
