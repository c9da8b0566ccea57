#include "fd/suspect_list_detector.hpp"

#include "common/check.hpp"
#include "common/codec.hpp"
#include "fd/failure_detector.hpp"

namespace abcast {

SuspectListDetector::SuspectListDetector(Env& env)
    : env_(env), peers_(env.group_size()) {}

void SuspectListDetector::start(bool recovering) {
  (void)recovering;  // nothing persistent: bounded output, no epoch log
  const TimePoint now = env_.now();
  for (auto& st : peers_) {
    st.timeout = kInitialTimeout;
    st.trusted = true;
    st.last_heard = now;
  }
  tick();
}

void SuspectListDetector::tick() {
  // An empty payload is enough: presence is the only information carried.
  env_.multisend(Wire{MsgType::kFdAlive, {}});

  const TimePoint now = env_.now();
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (p == env_.self()) continue;
    auto& st = peers_[p];
    if (st.trusted && now - st.last_heard > st.timeout) {
      st.trusted = false;
    }
  }
  env_.schedule_after(kHeartbeatPeriod, [this] { tick(); });
}

void SuspectListDetector::on_message(ProcessId from, const Wire& msg) {
  ABCAST_CHECK(msg.type == MsgType::kFdAlive);
  auto& st = peers_[from];
  if (!st.trusted && from != env_.self()) {
    // Without epochs we cannot tell "was up all along" from "crashed and
    // recovered": every flap must be treated as a possible wrong suspicion,
    // so the timeout grows on all of them (the cost of bounded output the
    // paper alludes to in §3.5).
    wrong_suspicions_ += 1;
    st.timeout += kTimeoutIncrement;
  }
  st.last_heard = env_.now();
  st.trusted = true;
}

bool SuspectListDetector::trusted(ProcessId p) const {
  ABCAST_CHECK(p < peers_.size());
  if (p == env_.self()) return true;
  return peers_[p].trusted;
}

ProcessId SuspectListDetector::leader() const {
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (trusted(p)) return p;
  }
  return env_.self();
}

std::vector<ProcessId> SuspectListDetector::trusted_set() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (trusted(p)) out.push_back(p);
  }
  return out;
}

std::vector<ProcessId> SuspectListDetector::suspects() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (!trusted(p)) out.push_back(p);
  }
  return out;
}

// --------------------------------------------------------------- factory

const char* to_string(FdKind kind) {
  switch (kind) {
    case FdKind::kEpoch: return "epoch";
    case FdKind::kSuspectList: return "suspect-list";
  }
  return "?";
}

std::unique_ptr<FailureDetector> make_failure_detector(FdKind kind, Env& env) {
  switch (kind) {
    case FdKind::kEpoch:
      return std::make_unique<EpochFailureDetector>(env);
    case FdKind::kSuspectList:
      return std::make_unique<SuspectListDetector>(env);
  }
  return nullptr;
}

}  // namespace abcast
