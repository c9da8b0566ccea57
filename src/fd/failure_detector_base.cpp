#include "fd/failure_detector_base.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace abcast {

FailureDetector::FailureDetector(Env& env, MsgType heartbeat_type)
    : env_(env), heartbeat_{heartbeat_type, {}}, peers_(env.group_size()) {}

void FailureDetector::start_monitor(SharedBytes payload) {
  heartbeat_.payload = std::move(payload);
  const TimePoint now = env_.now();
  for (auto& st : peers_) {
    st.timeout = kInitialTimeout;
    // Start optimistic: trust everyone until the first timeout expires.
    st.trusted = true;
    st.last_heard = now;
  }
  tick();
}

void FailureDetector::tick() {
  env_.multisend(heartbeat_);

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

void FailureDetector::heard(ProcessId from, bool suspicion_was_wrong) {
  auto& st = peers_[from];
  if (suspicion_was_wrong && !st.trusted && from != env_.self()) {
    // The peer was alive all along — we were too impatient. Back off.
    wrong_suspicions_ += 1;
    st.timeout += kTimeoutIncrement;
  }
  st.last_heard = env_.now();
  st.trusted = true;
}

bool FailureDetector::trusted(ProcessId p) const {
  ABCAST_CHECK(p < peers_.size());
  if (p == env_.self()) return true;
  return peers_[p].trusted;
}

ProcessId FailureDetector::leader() const {
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (trusted(p)) return p;
  }
  return env_.self();
}

std::vector<ProcessId> FailureDetector::trusted_set() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (trusted(p)) out.push_back(p);
  }
  return out;
}

}  // namespace abcast
