#include "fd/failure_detector.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/logging.hpp"
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
    : env_(env), storage_(env.storage(), "fd"), peers_(env.group_size()) {}

void EpochFailureDetector::start(bool recovering) {
  (void)recovering;  // the epoch record itself tells us whether we lived before
  // Dual-slot counter: a torn write can never roll the epoch back, which
  // would reuse incarnation numbers (and therefore message ids) and make
  // the duplicate-suppression logic drop fresh messages.
  epoch_ = DurableCounter(storage_, kEpochKey).bump();

  const TimePoint now = env_.now();
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    auto& st = peers_[p];
    st.timeout = kInitialTimeout;
    // Start optimistic: trust everyone until the first timeout expires.
    st.trusted = true;
    st.last_heard = now;
  }
  tick();
}

void EpochFailureDetector::tick() {
  env_.multisend(make_wire(MsgType::kFdHeartbeat, HeartbeatMsg{epoch_}));

  const TimePoint now = env_.now();
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (p == env_.self()) continue;
    auto& st = peers_[p];
    if (st.trusted && now - st.last_heard > st.timeout) {
      st.trusted = false;
      ABCAST_LOG(kDebug, "fd@" << env_.self() << " suspects " << p);
    }
  }

  env_.schedule_after(kHeartbeatPeriod, [this] { tick(); });
}

void EpochFailureDetector::on_message(ProcessId from, const Wire& msg) {
  ABCAST_CHECK(msg.type == MsgType::kFdHeartbeat);
  const auto hb = decode_from_bytes<HeartbeatMsg>(msg.payload);
  auto& st = peers_[from];
  const bool was_suspected = st.ever_heard && !st.trusted && from != env_.self();
  if (was_suspected && hb.epoch == st.epoch) {
    // The peer was alive all along — we were too impatient. Back off.
    wrong_suspicions_ += 1;
    st.timeout += kTimeoutIncrement;
  }
  st.last_heard = env_.now();
  st.epoch = std::max(st.epoch, hb.epoch);
  st.trusted = true;
  st.ever_heard = true;
}

bool EpochFailureDetector::trusted(ProcessId p) const {
  ABCAST_CHECK(p < peers_.size());
  if (p == env_.self()) return true;
  return peers_[p].trusted;
}

ProcessId EpochFailureDetector::leader() const {
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (trusted(p)) return p;
  }
  return env_.self();
}

std::vector<ProcessId> EpochFailureDetector::trusted_set() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (trusted(p)) out.push_back(p);
  }
  return out;
}

std::uint64_t EpochFailureDetector::epoch_of(ProcessId p) const {
  ABCAST_CHECK(p < peers_.size());
  if (p == env_.self()) return epoch_;
  return peers_[p].epoch;
}

}  // namespace abcast
