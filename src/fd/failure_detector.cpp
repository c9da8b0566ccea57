#include "fd/failure_detector.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "storage/durable_counter.hpp"

namespace abcast {
namespace {

constexpr const char* kEpochKey = "epoch";

struct HeartbeatMsg {
  std::uint64_t epoch = 0;

  void encode(BufWriter& w) const { w.u64(epoch); }
  static HeartbeatMsg decode(BufReader& r) { return HeartbeatMsg{r.u64()}; }
};

}  // namespace

EpochFailureDetector::EpochFailureDetector(Env& env)
    : FailureDetector(env, MsgType::kFdHeartbeat),
      storage_(env.storage(), "fd"),
      epochs_(env.group_size(), 0) {}

void EpochFailureDetector::start() {
  // The epoch record itself tells us whether we lived before. Dual-slot
  // counter: a torn write can never roll the epoch back, which would reuse
  // incarnation numbers (and therefore message ids) and make the
  // duplicate-suppression logic drop fresh messages.
  epoch_ = DurableCounter(storage_, kEpochKey).bump();
  start_monitor(encode_to_bytes(HeartbeatMsg{epoch_}));
}

void EpochFailureDetector::on_message(ProcessId from, const Wire& msg) {
  ABCAST_CHECK(msg.type == MsgType::kFdHeartbeat);
  const auto hb = decode_from_bytes<HeartbeatMsg>(msg.payload);
  std::uint64_t& last = epochs_[from];
  // Heard again in its last epoch: it never crashed, so we suspected wrongly.
  heard(from, /*suspicion_was_wrong=*/last > 0 && hb.epoch == last);
  last = std::max(last, hb.epoch);
}

std::uint64_t EpochFailureDetector::epoch_of(ProcessId p) const {
  ABCAST_CHECK(p < epochs_.size());
  if (p == env_.self()) return epoch_;
  return epochs_[p];
}

}  // namespace abcast
