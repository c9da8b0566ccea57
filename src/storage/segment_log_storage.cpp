#include "storage/segment_log_storage.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <system_error>
#include <vector>

#include "common/codec.hpp"
#include "storage/sealed_record.hpp"

namespace abcast {
namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kRecPut = 1;
constexpr std::uint8_t kRecErase = 2;
constexpr const char* kSegPrefix = "seg-";
constexpr const char* kSegSuffix = ".log";

fs::path segment_path(const fs::path& dir, std::uint64_t id) {
  char name[32];
  std::snprintf(name, sizeof name, "%s%012llu%s", kSegPrefix,
                static_cast<unsigned long long>(id), kSegSuffix);
  return dir / name;
}

/// seg-NNNNNNNNNNNN.log -> NNNNNNNNNNNN, or nullopt for foreign files.
std::optional<std::uint64_t> segment_id(const fs::path& path) {
  const std::string name = path.filename().string();
  const std::string prefix = kSegPrefix;
  const std::string suffix = kSegSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t id = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return id;
}

/// Reads up to `len` bytes at `offset`; fewer at the end of the file or on
/// an error.
std::size_t pread_upto(int fd, std::uint8_t* out, std::size_t len,
                       std::uint64_t offset) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, out + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

SegmentedLogStorage::SegmentedLogStorage(SegmentedLogConfig cfg)
    : cfg_(std::move(cfg)) {
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
  if (ec) throw StorageIoError("cannot create " + cfg_.dir.string());
  replay_segments();
  open_fresh_segment();
}

SegmentedLogStorage::~SegmentedLogStorage() {
  // Best-effort final barrier so a clean shutdown leaves nothing in the
  // page cache only (destruction is not a crash).
  if (unsynced_ > 0 && fd_ >= 0 && cfg_.sync != SyncMode::kNone) {
    ::fdatasync(fd_);
  }
  for (const auto& [id, fd] : segment_fds_) ::close(fd);
}

// ---- record framing --------------------------------------------------------

Bytes SegmentedLogStorage::frame_record(std::string_view key,
                                        const Bytes* value) const {
  BufWriter body;
  body.u8(value != nullptr ? kRecPut : kRecErase);
  body.str(key);
  if (value != nullptr) body.bytes(*value);
  const Bytes sealed = seal_record(std::move(body).take());
  BufWriter framed;
  framed.bytes(sealed);  // [u32 len][sealed body] — the segment frame
  return std::move(framed).take();
}

void SegmentedLogStorage::write_all(int fd, const Bytes& data,
                                    const char* what) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) throw StorageIoError(std::string("write failed for ") + what);
    off += static_cast<std::size_t>(n);
  }
}

void SegmentedLogStorage::sync_fd(int fd, const char* what) {
  if (::fdatasync(fd) != 0) {
    throw StorageIoError(std::string("fdatasync failed for ") + what);
  }
  seg_stats_.fsyncs += 1;
}

void SegmentedLogStorage::sync_point() {
  if (unsynced_ == 0) return;
  if (cfg_.sync != SyncMode::kNone) {
    sync_fd(fd_, "segment");
    // One fdatasync made unsynced_ records durable: all but the last rode
    // a sync they did not issue.
    seg_stats_.group_commits += unsynced_ - 1;
  }
  unsynced_ = 0;
}

void SegmentedLogStorage::sync_dir() {
  const int fd = ::open(cfg_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw StorageIoError("open dir failed: " + cfg_.dir.string());
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) throw StorageIoError("fsync dir failed: " + cfg_.dir.string());
}

// ---- segment lifecycle -----------------------------------------------------

void SegmentedLogStorage::open_fresh_segment() {
  // Seal the outgoing segment, so sync points only ever cover the current
  // fd; the outgoing fd stays open for reads.
  if (fd_ >= 0) sync_point();
  const fs::path path = segment_path(cfg_.dir, next_segment_);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw StorageIoError("cannot create " + path.string());
  segment_fds_.emplace(next_segment_, fd_);
  next_segment_ += 1;
  current_segment_bytes_ = 0;
  seg_stats_.segments_created += 1;
}

void SegmentedLogStorage::append_record(std::string_view key,
                                        const Bytes* value) {
  const Bytes framed = frame_record(key, value);
  write_all(fd_, framed, "segment");
  const Loc loc{next_segment_ - 1, current_segment_bytes_,
                static_cast<std::uint32_t>(framed.size()),
                static_cast<std::uint32_t>(value ? value->size() : 0)};
  unsynced_ += 1;
  seg_stats_.appends += 1;
  seg_stats_.bytes_appended += framed.size();
  current_segment_bytes_ += framed.size();
  total_disk_bytes_ += framed.size();

  // Update the index and the dead-byte accounting.
  const auto it = records_.find(key);
  if (it != records_.end()) live_disk_bytes_ -= it->second.disk_size;
  if (value != nullptr) {
    live_disk_bytes_ += framed.size();
    if (it != records_.end()) {
      it->second = loc;
    } else {
      records_.emplace(IndexKey(key), loc);
    }
  } else if (it != records_.end()) {
    records_.erase(it);
  }

  if (current_segment_bytes_ >= cfg_.segment_bytes) open_fresh_segment();
  maybe_compact();
}

void SegmentedLogStorage::read_at(std::uint64_t segment,
                                  std::uint64_t offset, std::size_t len,
                                  Bytes& out) {
  const int fd = segment_fds_.at(segment);
  if (len > kWindowBytes) {
    const std::size_t at = out.size();
    out.resize(at + len);
    if (pread_upto(fd, out.data() + at, len, offset) < len) {
      throw StorageIoError("short read from segment");
    }
    return;
  }
  if (segment != window_segment_ || offset < window_offset_ ||
      offset + len > window_offset_ + window_len_) {
    // Refill from `offset`: scans in key order meet records in about the
    // order they were appended, so the next read is likely ahead.
    if (!window_) {
      window_ = std::make_unique_for_overwrite<std::uint8_t[]>(kWindowBytes);
    }
    window_segment_ = segment;
    window_offset_ = offset;
    window_len_ = pread_upto(fd, window_.get(), kWindowBytes, offset);
    if (window_len_ < len) throw StorageIoError("short read from segment");
  }
  const std::uint8_t* p = window_.get() + (offset - window_offset_);
  out.insert(out.end(), p, p + len);
}

void SegmentedLogStorage::maybe_compact() {
  if (total_disk_bytes_ < cfg_.compact_min_bytes) return;
  const std::uint64_t dead = total_disk_bytes_ - live_disk_bytes_;
  if (static_cast<double>(dead) <
      cfg_.compact_dead_ratio * static_cast<double>(total_disk_bytes_)) {
    return;
  }
  compact();
}

void SegmentedLogStorage::compact() {
  // Copy every live record into a fresh segment, make it durable, THEN
  // unlink the older segments. A crash at any point is safe: replay walks
  // segments in id order, so replaying a surviving old segment plus a
  // partial compacted one just re-applies a subset of the same records.
  const std::uint64_t doomed_below = next_segment_;
  open_fresh_segment();  // seals the outgoing segment
  Bytes framed;
  for (auto& [key, loc] : records_) {
    framed.clear();
    read_at(loc.segment, loc.offset, loc.disk_size, framed);
    write_all(fd_, framed, "compacted segment");
    loc.segment = next_segment_ - 1;
    loc.offset = current_segment_bytes_;
    current_segment_bytes_ += framed.size();
    seg_stats_.bytes_appended += framed.size();
  }
  if (cfg_.sync != SyncMode::kNone) {
    sync_fd(fd_, "compacted segment");
    sync_dir();
  }
  live_disk_bytes_ = current_segment_bytes_;
  total_disk_bytes_ = current_segment_bytes_;

  std::error_code ec;
  while (segment_fds_.begin()->first < doomed_below) {
    ::close(segment_fds_.begin()->second);
    fs::remove(segment_path(cfg_.dir, segment_fds_.begin()->first), ec);
    segment_fds_.erase(segment_fds_.begin());
  }
  window_len_ = 0;  // its segment may be gone
  if (cfg_.sync != SyncMode::kNone) sync_dir();
  seg_stats_.compactions += 1;

  // The compacted segment may itself be over the roll threshold; let the
  // next append roll it rather than recursing here.
}

// ---- recovery --------------------------------------------------------------

void SegmentedLogStorage::replay_segments() {
  std::vector<std::pair<std::uint64_t, fs::path>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (const auto id = segment_id(entry.path())) {
      segments.emplace_back(*id, entry.path());
      next_segment_ = std::max(next_segment_, *id + 1);
    }
  }
  std::sort(segments.begin(), segments.end());
  for (const auto& [id, path] : segments) {
    const std::uint64_t good_prefix = replay_one(id, path);
    std::error_code trunc_ec;
    const auto size = fs::file_size(path, trunc_ec);
    if (!trunc_ec && good_prefix < size) {
      // Torn tail: the record was mid-write when the process died, so the
      // operation never completed. Truncate so the damage cannot shadow
      // future replays.
      fs::resize_file(path, good_prefix, trunc_ec);
    }
  }
  // live/total accounting after replay: every surviving record's framed
  // size counts as both live and total (tombstones and overwritten records
  // were already dropped from the map; their dead bytes remain on disk
  // until the next compaction, which total_disk_bytes_ must reflect).
  total_disk_bytes_ = 0;
  for (const auto& [id, path] : segments) {
    std::error_code size_ec;
    const auto size = fs::file_size(path, size_ec);
    if (!size_ec) total_disk_bytes_ += size;
  }
  live_disk_bytes_ = 0;
  for (const auto& [key, loc] : records_) live_disk_bytes_ += loc.disk_size;
}

std::uint64_t SegmentedLogStorage::replay_one(std::uint64_t id,
                                              const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw StorageIoError("cannot open " + path.string());
  segment_fds_.emplace(id, fd);
  std::error_code ec;
  const auto file_size = fs::file_size(path, ec);
  if (ec) return 0;
  Bytes raw(file_size);
  raw.resize(pread_upto(fd, raw.data(), raw.size(), 0));

  std::size_t pos = 0;
  while (pos + 4 <= raw.size()) {
    BufReader len_r(raw.data() + pos, 4);
    const std::uint32_t len = len_r.u32();
    if (len < 4 || pos + 4 + len > raw.size()) break;  // torn length/tail
    // CRC failure: the append never completed
    if (!seal_intact(raw.data() + pos + 4, len)) break;
    try {
      BufReader r(raw.data() + pos + 4, len - 4);
      const std::uint8_t type = r.u8();
      std::string key = r.str();
      if (type == kRecPut) {
        const std::uint32_t value_size = r.u32();
        if (value_size != r.remaining()) break;
        records_.insert_or_assign(IndexKey(key),
                                  Loc{id, pos, 4 + len, value_size});
      } else if (type == kRecErase) {
        r.expect_done();
        if (const auto it = records_.find(key); it != records_.end()) {
          records_.erase(it);
        }
      } else {
        break;  // unknown type: treat like a damaged record
      }
    } catch (const CodecError&) {
      break;
    }
    seg_stats_.recovered_records += 1;
    pos += 4 + len;
  }
  if (pos < raw.size()) seg_stats_.torn_tail_records += 1;
  return pos;
}

// ---- StableStorage ---------------------------------------------------------

void SegmentedLogStorage::put(std::string_view key, const Bytes& value) {
  std::lock_guard<std::mutex> lock(mu_);
  append_record(key, &value);
  stats_.put_ops += 1;
  stats_.bytes_written += key.size() + value.size();
  if (cfg_.sync == SyncMode::kEachPut) sync_point();
}

std::optional<Bytes> SegmentedLogStorage::get(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.get_ops += 1;
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  const Loc& loc = it->second;
  Bytes value;
  read_at(loc.segment, loc.offset + loc.disk_size - 4 - loc.value_size,
          loc.value_size, value);
  return value;
}

void SegmentedLogStorage::erase(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.erase_ops += 1;
  if (records_.find(key) == records_.end()) return;  // nothing to tombstone
  append_record(key, nullptr);
  if (cfg_.sync == SyncMode::kEachPut) sync_point();
}

void SegmentedLogStorage::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  sync_point();  // kEachPut has nothing pending; kNone never syncs
}

std::vector<std::string> SegmentedLogStorage::keys_with_prefix(
    std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = records_.lower_bound(prefix); it != records_.end(); ++it) {
    const std::string_view key = it->first.view();
    if (key.substr(0, prefix.size()) != prefix) break;
    out.emplace_back(key);
  }
  return out;
}

std::uint64_t SegmentedLogStorage::footprint_bytes() {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, loc] : records_) {
    total += key.view().size() + loc.value_size;
  }
  return total;
}

std::uint64_t SegmentedLogStorage::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_disk_bytes_;
}

}  // namespace abcast
