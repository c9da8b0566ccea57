#include "fd/suspect_list_detector.hpp"

#include "common/check.hpp"
#include "fd/failure_detector.hpp"

namespace abcast {

SuspectListDetector::SuspectListDetector(Env& env)
    : FailureDetector(env, MsgType::kFdAlive) {}

void SuspectListDetector::start() {
  // Nothing persistent (bounded output, no epoch log), and an empty payload
  // is enough: presence is the only information carried.
  start_monitor({});
}

void SuspectListDetector::on_message(ProcessId from, const Wire& msg) {
  ABCAST_CHECK(msg.type == MsgType::kFdAlive);
  // Without epochs we cannot tell "was up all along" from "crashed and
  // recovered": every flap must be treated as a possible wrong suspicion,
  // so the timeout grows on all of them (the cost of bounded output the
  // paper alludes to in §3.5).
  heard(from, /*suspicion_was_wrong=*/true);
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
