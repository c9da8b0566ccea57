#include "harness/oracle.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/codec.hpp"

namespace abcast::harness {
namespace {

std::uint64_t mix_hash(std::uint64_t h, const MsgId& id) {
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(id.sender);
  mix(id.seq);
  return h;
}

}  // namespace

void OracleSink::deliver(const core::AppMsg& msg) {
  oracle_.on_deliver(pid_, msg);
}

Bytes OracleSink::take_checkpoint() { return oracle_.checkpoint_state(pid_); }

void OracleSink::install_checkpoint(const Bytes& state) {
  oracle_.install_state(pid_, state);
}

Oracle::Oracle(std::uint32_t n) : n_(n), positions_(n, 0) {
  prefix_hash_.push_back(0);
  now_ = [] { return TimePoint{0}; };
}

void Oracle::on_broadcast(const MsgId& id, TimePoint at) {
  ABCAST_CHECK_MSG(broadcast_time_.emplace(id, at).second,
                   "duplicate broadcast id " + to_string(id));
}

void Oracle::on_restart(ProcessId pid) {
  ABCAST_CHECK(pid < n_);
  // A fresh incarnation re-delivers from the start unless a checkpoint is
  // installed first.
  positions_[pid] = 0;
}

void Oracle::on_deliver(ProcessId pid, const core::AppMsg& msg) {
  ABCAST_CHECK(pid < n_);

  // Validity: delivered implies broadcast.
  ABCAST_CHECK_MSG(broadcast_time_.count(msg.id) != 0,
                   "validity violated: spurious message " + to_string(msg.id) +
                       " delivered at p" + std::to_string(pid));

  const std::uint64_t pos = positions_[pid];
  if (pos < global_.size()) {
    // Prefix agreement: this process must re-trace the established order.
    ABCAST_CHECK_MSG(
        global_[pos] == msg.id,
        "total order violated at p" + std::to_string(pid) + " position " +
            std::to_string(pos) + ": expected " + to_string(global_[pos]) +
            " got " + to_string(msg.id));
  } else {
    // This process extends the global order.
    ABCAST_CHECK_MSG(pos == global_.size(), "gap in delivery position");
    // Integrity (global form): no message ordered twice.
    ABCAST_CHECK_MSG(delivered_set_.insert(msg.id).second,
                     "integrity violated: " + to_string(msg.id) +
                         " ordered twice");
    global_.push_back(msg.id);
    prefix_hash_.push_back(mix_hash(prefix_hash_.back(), msg.id));
    const TimePoint now = now_();
    first_delivery_.emplace(msg.id, now);
    latencies_.push_back(now - broadcast_time_.at(msg.id));
    timed_latencies_.push_back({now, latencies_.back()});
  }
  positions_[pid] = pos + 1;
}

Bytes Oracle::checkpoint_state(ProcessId pid) const {
  BufWriter w;
  w.u64(positions_[pid]);
  w.u64(prefix_hash_at(positions_[pid]));
  return std::move(w).take();
}

void Oracle::install_state(ProcessId pid, const Bytes& state) {
  ABCAST_CHECK(pid < n_);
  if (state.empty()) {
    // A-checkpoint(⊥): initial state.
    positions_[pid] = 0;
    return;
  }
  BufReader r(state);
  const std::uint64_t pos = r.u64();
  const std::uint64_t hash = r.u64();
  r.expect_done();
  ABCAST_CHECK_MSG(pos <= global_.size(),
                   "checkpoint beyond the global order");
  ABCAST_CHECK_MSG(hash == prefix_hash_at(pos),
                   "checkpoint state does not match the global prefix at "
                   "position " + std::to_string(pos));
  positions_[pid] = pos;
}

std::uint64_t Oracle::prefix_hash_at(std::uint64_t position) const {
  ABCAST_CHECK(position < prefix_hash_.size());
  return prefix_hash_[position];
}

bool Oracle::all_delivered(const std::vector<MsgId>& ids,
                           const std::vector<ProcessId>& at) const {
  // A process has delivered id iff its position is past id's index in the
  // global order.
  std::map<MsgId, std::uint64_t> index;
  for (std::uint64_t i = 0; i < global_.size(); ++i) index[global_[i]] = i;
  for (const auto& id : ids) {
    auto it = index.find(id);
    if (it == index.end()) return false;
    for (const ProcessId p : at) {
      ABCAST_CHECK(p < n_);
      if (positions_[p] <= it->second) return false;
    }
  }
  return true;
}

void Oracle::check() const {
  // All per-event invariants are enforced eagerly in on_deliver /
  // install_state; this re-validates cheap global ones.
  ABCAST_CHECK(global_.size() == delivered_set_.size());
  ABCAST_CHECK(prefix_hash_.size() == global_.size() + 1);
  for (const auto pos : positions_) ABCAST_CHECK(pos <= global_.size());
}

}  // namespace abcast::harness
