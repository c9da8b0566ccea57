#include "core/node_stack.hpp"

#include "common/check.hpp"
#include "common/codec.hpp"
#include "storage/durable_counter.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast::core {

NodeStack::NodeStack(Env& env, StackConfig config, DeliverySink& sink)
    : env_(env),
      fd_(make_failure_detector(config.fd_kind, env)),
      cons_(make_consensus(config.engine, env, *fd_)),
      ab_(env, *cons_, sink, config.ab) {
  cons_->set_decided_callback(
      [this](InstanceId k, const Bytes&) { ab_.on_decided(k); });
  cons_->set_obsolete_callback(
      [this](ProcessId from, InstanceId k) { ab_.on_peer_truncated(from, k); });
}

// Loads, bumps, and re-logs the stack-owned incarnation counter (scope
// "node/"), used when the failure detector has bounded output and thus no
// epoch of its own.
std::uint64_t NodeStack::own_incarnation_bump() {
  // Dual-slot: a torn write must not roll the incarnation back — a reused
  // incarnation reuses message ids, and the vector-clock duplicate
  // suppression would then drop fresh messages (a Validity violation).
  ScopedStorage storage(env_.storage(), "node");
  return DurableCounter(storage, "incarnation").bump();
}

void NodeStack::start(bool recovering) {
  // Order matters: the detector logs/bumps the epoch first (it provides
  // the incarnation number), consensus reloads its logs next, and atomic
  // broadcast replays on top of those reloaded decisions.
  fd_->start();
  incarnation_ = fd_->incarnation();
  if (incarnation_ == 0) incarnation_ = own_incarnation_bump();
  cons_->start(incarnation_);
  ab_.start(recovering, incarnation_);
}

void NodeStack::on_message(ProcessId from, const Wire& msg) {
  if (fd_->handles(msg.type)) {
    fd_->on_message(from, msg);
  } else if (cons_->handles(msg.type)) {
    cons_->on_message(from, msg);
  } else if (ab_.handles(msg.type)) {
    ab_.on_message(from, msg);
  } else {
    ABCAST_CHECK_MSG(false, "unroutable message type");
  }
}

}  // namespace abcast::core
