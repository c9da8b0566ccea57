// Feature flags selecting between the paper's basic protocol (Fig. 2) and
// the alternative protocol (Figs. 3–5). Each §5 mechanism is independently
// toggleable so the ablation benches can isolate one at a time; a flag
// stays only while some bench row shows it winning (DESIGN.md "Knobs").
//
// Datagram sizes are not options: the transport's Env::max_datagram_bytes()
// sizes every datagram, and so bounds the messages one round can order.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/types.hpp"

namespace abcast::core {

struct Options {
  /// Gossip task period (paper §4.2 — "repeat forever multisend gossip").
  Duration gossip_period = millis(30);

  /// Additionally multisend each new message the moment it is broadcast
  /// (instead of waiting for the next gossip tick). This approximates the
  /// eager relay of the crash-stop Chandra-Toueg transformation and is used
  /// by the baseline configuration. Under digest_gossip the eager datagram
  /// carries only the sender's own unordered suffix (not the whole set).
  bool eager_dissemination = false;

  // ---- digest-based delta gossip (anti-entropy) --------------------------
  /// Replace full-set gossip with digest anti-entropy: the periodic
  /// datagram carries (k, total, per-sender coverage digest) instead of the
  /// whole Unordered set; a receiver replies (rate-limited, per peer) with
  /// only the per-sender suffixes the digester is missing, shipped in
  /// sender-seq order so the monotone-set invariant AgreedLog depends on is
  /// preserved by construction (see DESIGN.md "Digest gossip"). Digest mode
  /// also skips a tick when nothing changed since the last send and no peer
  /// is known to lag, down to a keepalive every few ticks; full-set mode
  /// multisends on every tick, as Fig. 2 does.
  bool digest_gossip = false;

  // ---- §5.1: avoiding the replay phase ---------------------------------
  /// Periodically log (k, Agreed) so recovery resumes from the checkpoint
  /// instead of replaying every decided Consensus instance.
  bool checkpointing = false;
  Duration checkpoint_period = millis(500);
  /// Also truncate Consensus records made obsolete by the checkpoint
  /// (Fig. 4 line c) — bounds the log but requires state transfer to serve
  /// processes that lag past the truncation horizon.
  bool truncate_logs = false;

  // ---- §5.2: application-level checkpoints ------------------------------
  /// Replace the delivered-message suffix with the application state from
  /// the A-checkpoint upcall at every checkpoint. Requires checkpointing.
  bool app_checkpointing = false;

  // ---- §5.3: state transfer ---------------------------------------------
  /// Send/accept state messages when a peer lags by more than `delta`
  /// rounds (Fig. 3 lines d–f). A session streams only the tail the
  /// recipient's gossip says it lacks (§5.3's closing optimization),
  /// preceded by the sender's application checkpoint when the recipient
  /// predates it.
  bool state_transfer = false;
  std::uint64_t delta = 4;

  // ---- §5.4: message batches / early return -----------------------------
  /// Log the Unordered set on every A-broadcast so the call durably
  /// completes before ordering (higher throughput; one more log op per
  /// broadcast). Logged incrementally (§5.5): one small record per message,
  /// erased once ordered.
  bool log_unordered = false;

  /// Fig. 2 exactly: the only log operation is the Consensus proposal.
  static Options basic() { return Options{}; }

  /// Figs. 3–5 with every extension on.
  static Options alternative() {
    Options o;
    o.checkpointing = true;
    o.truncate_logs = true;
    o.app_checkpointing = true;
    o.state_transfer = true;
    o.log_unordered = true;
    return o;
  }

  void validate() const {
    ABCAST_CHECK(gossip_period > 0);
    ABCAST_CHECK_MSG(!app_checkpointing || checkpointing,
                     "app_checkpointing requires checkpointing");
    ABCAST_CHECK_MSG(!truncate_logs || checkpointing,
                     "truncate_logs requires checkpointing");
    ABCAST_CHECK_MSG(!truncate_logs || state_transfer,
                     "truncate_logs requires state_transfer (a process that "
                     "lags past the truncation horizon can only catch up "
                     "via a state message)");
    if (checkpointing) ABCAST_CHECK(checkpoint_period > 0);
    if (state_transfer) ABCAST_CHECK(delta >= 1);
  }
};

}  // namespace abcast::core
