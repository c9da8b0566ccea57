#include "core/agreed_log.hpp"

namespace abcast::core {

std::vector<AppMsg> AgreedLog::append(std::vector<AppMsg> batch) {
  sort_deterministic(batch);
  std::vector<AppMsg> delivered;
  delivered.reserve(batch.size());
  for (auto& m : batch) {
    if (vc_.covers(m.id)) {
      // Either already delivered (decided twice) or superseded by a later
      // SAME-INCARNATION message of its sender that was agreed first; every
      // process skips it here, so the global sequence stays identical.
      // Supersession is deliberately per-incarnation: a new incarnation's
      // root never covers the previous incarnation's still-undelivered
      // (durably logged) messages — those stay deliverable by later
      // batches (see vector_clock.hpp).
      skipped_ += 1;
      continue;
    }
    push(m);
    delivered.push_back(std::move(m));
  }
  return delivered;
}

std::vector<AppMsg> AgreedLog::append_sequence(
    const std::vector<AppMsg>& segment) {
  std::vector<AppMsg> delivered;
  delivered.reserve(segment.size());
  for (const auto& m : segment) {
    if (vc_.covers(m.id)) {
      skipped_ += 1;
      continue;
    }
    push(m);
    delivered.push_back(m);
  }
  return delivered;
}

void AgreedLog::push(const AppMsg& m) {
  vc_.observe(m.id);
  total_ += 1;
  if (keep_suffix_) suffix_.push_back(m);
}

void AgreedLog::reset_to_base(AppCheckpoint ckpt) {
  vc_ = ckpt.vc;
  base_count_ = ckpt.count;
  total_ = ckpt.count;
  base_ = std::move(ckpt);
  suffix_.clear();
}

void AgreedLog::compact(Bytes state) {
  AppCheckpoint ckpt;
  ckpt.state = std::move(state);
  ckpt.vc = vc_;
  ckpt.count = total();
  base_ = std::move(ckpt);
  base_count_ = base_->count;
  suffix_.clear();
}

void AgreedLog::encode(BufWriter& w) const {
  ABCAST_CHECK_MSG(keep_suffix_, "encoding an AgreedLog that keeps no suffix");
  w.boolean(base_.has_value());
  if (base_) base_->encode(w);
  w.vec(suffix_, [](BufWriter& ww, const AppMsg& m) { m.encode(ww); });
  vc_.encode(w);
}

AgreedLog AgreedLog::decode(BufReader& r) {
  AgreedLog log;
  if (r.boolean()) {
    log.base_ = AppCheckpoint::decode(r);
    log.base_count_ = log.base_->count;
  }
  log.suffix_ =
      r.vec<AppMsg>([](BufReader& rr) { return AppMsg::decode(rr); });
  log.total_ = log.base_count_ + log.suffix_.size();
  log.vc_ = VectorClock::decode(r);
  return log;
}

}  // namespace abcast::core
