// Atomic Broadcast for asynchronous crash-recovery systems — the paper's
// core contribution (Fig. 2 basic protocol; Figs. 3–5 alternative protocol).
//
// The protocol proceeds in rounds. In round k the process proposes its
// Unordered set to the k-th Consensus instance; the decided batch is moved
// to the Agreed queue under a deterministic in-batch order; gossip
// disseminates unordered messages and round numbers. The paper's blocking
// "wait until" pseudocode is realized as an event-driven state machine:
//
//   broadcast(payload)   — A-broadcast(m). Returns the message id at once;
//                          the invocation is semantically complete when the
//                          message is delivered (basic protocol) or as soon
//                          as the call returns (with Options::log_unordered,
//                          §5.4 — the Unordered set is logged before
//                          returning).
//   DeliverySink         — A-deliver upcalls, in total order.
//   is_delivered(id)     — A-delivered(m) predicate.
//
// Logging: with Options::basic() this layer performs ZERO log operations —
// the only log in the whole protocol is the proposal, written inside the
// Consensus black box as its first action (§4.3 minimal-logging claim;
// verified by bench_logops). Each §5 feature adds the specific log
// operations the paper describes.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/relaxed_counter.hpp"
#include "common/types.hpp"
#include "core/app_msg.hpp"
#include "consensus/consensus.hpp"
#include "core/agreed_log.hpp"
#include "core/delivery_sink.hpp"
#include "core/options.hpp"
#include "env/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast::core {

struct StateChunkMsg;  // core/ab_wire.hpp

struct AbMetrics {
  RelaxedU64 broadcasts;
  RelaxedU64 delivered;
  RelaxedU64 rounds_completed;
  RelaxedU64 replayed_rounds;   // rounds re-applied during recovery
  RelaxedU64 proposals;
  RelaxedU64 empty_proposals;   // proposals for missed rounds
  RelaxedU64 gossip_sent;
  RelaxedU64 gossip_received;
  /// Gossip payload bytes produced (payload size × recipients), across
  /// full-set, digest, delta, and eager datagrams.
  RelaxedU64 gossip_bytes_sent;
  RelaxedU64 digest_sent;       // digest-only multisends (anti-entropy)
  RelaxedU64 delta_sent;        // per-peer delta datagrams (reply+eager)
  RelaxedU64 delta_msgs_sent;   // AppMsgs shipped inside deltas
  /// Delta messages that did not extend the local per-sender coverage on
  /// arrival (a push overtook its predecessor on the non-FIFO channel) and
  /// were parked in the reorder buffer; see DESIGN.md.
  RelaxedU64 delta_rejected;
  RelaxedU64 gossip_suppressed;  // idle ticks skipped (digest mode)
  /// Catch-up sessions opened toward lagging peers (§5.3). One session
  /// streams the whole missing state in bounded chunks; the chunk counters
  /// below account the individual datagrams.
  RelaxedU64 state_sent;
  RelaxedU64 state_sent_trimmed;  // of which tail-only (no snapshot phase)
  RelaxedU64 state_applied;       // catch-up sessions adopted (k jumped)
  RelaxedU64 state_chunks_sent;   // chunk datagrams sent (snapshot + tail)
  RelaxedU64 state_chunk_bytes_sent;  // payload bytes across those chunks
  RelaxedU64 state_chunks_applied;    // chunks accepted and applied/staged
  RelaxedU64 state_snapshots_applied; // peer app checkpoints installed
  /// Go-back resumptions: the sender rewound its chunk cursor to the
  /// receiver's last ack after chunk loss, reorder, or a receiver crash.
  RelaxedU64 state_resumes;
  RelaxedU64 checkpoints;
  /// Stored records found torn/corrupt during recovery (CRC or decode
  /// failure) and discarded; the protocol fell back to replay/state
  /// transfer instead of trusting them.
  RelaxedU64 corrupt_records;
};

class AtomicBroadcast {
 public:
  /// `consensus` and `sink` must outlive this object. The consensus service
  /// must not be started yet; the owner wires the decided/obsolete
  /// callbacks to on_decided()/on_peer_truncated() before starting it
  /// (NodeStack does all of this).
  AtomicBroadcast(Env& env, ConsensusService& consensus, DeliverySink& sink,
                  Options options);

  /// Starts (or recovers) the protocol. `incarnation` must be unique per
  /// lifetime of this process (e.g. the failure detector epoch); it makes
  /// message ids unique across crashes at no extra log cost.
  void start(bool recovering, std::uint64_t incarnation);

  /// A-broadcast(m). See file header for completion semantics.
  MsgId broadcast(Bytes payload);

  /// The largest payload broadcast() accepts (it throws RequestRefused
  /// above): one whose message rides alone in every datagram that carries
  /// messages.
  std::size_t max_payload_bytes() const { return max_payload_bytes_; }

  /// The id the NEXT broadcast() call will assign. Lets a harness register
  /// the id with its oracle BEFORE invoking broadcast(), so a broadcast
  /// interrupted by a crash mid-log (but still durable and later delivered)
  /// is accounted for.
  MsgId next_broadcast_id() const {
    return MsgId{env_.self(), make_seq(incarnation_, counter_ + 1)};
  }

  /// A-delivered(m, ·): true once `id` is in the local delivery sequence.
  bool is_delivered(const MsgId& id) const { return agreed_.contains(id); }

  /// The local delivery sequence representation (A-deliver-sequence()).
  const AgreedLog& agreed() const { return agreed_; }

  /// Current round (the paper's kp).
  std::uint64_t round() const { return k_; }

  /// Number of messages awaiting ordering.
  std::size_t unordered_size() const { return unordered_.size(); }

  /// The Unordered set itself (tests: chain-invariant checks).
  const std::map<MsgId, AppMsg>& unordered() const { return unordered_; }

  /// Per-sender coverage digest: for every sender p, the highest seq such
  /// that agreed ∪ unordered holds p's whole chain up to it (see DESIGN.md
  /// "Digest gossip").
  std::vector<std::uint64_t> compute_cover() const;

  // ---- wiring ------------------------------------------------------------
  bool handles(MsgType type) const {
    return type == MsgType::kAbGossip || type == MsgType::kAbGossipDigest ||
           type == MsgType::kAbStateChunk;
  }
  void on_message(ProcessId from, const Wire& msg);
  /// Route of the Consensus decided callback.
  void on_decided(InstanceId k);
  /// Route of the Consensus obsolete-instance callback (a peer asked about
  /// a truncated instance: it needs a state transfer).
  void on_peer_truncated(ProcessId from, InstanceId k);

  const AbMetrics& metrics() const { return metrics_; }
  const StorageStats& storage_stats() const { return storage_.stats(); }
  const Options& options() const { return options_; }

 private:
  /// What this process last learned (or optimistically assumes) about a
  /// peer's progress. Fed by incoming gossip of either kind; `cover` only by
  /// digest gossip (and by our own optimistic bumps after delta sends).
  struct PeerView {
    bool heard = false;
    std::uint64_t k = 0;
    std::uint64_t total = 0;
    /// Working cover: digest truth, optimistically bumped for every delta
    /// message shipped so back-to-back broadcasts ship each message once.
    std::vector<std::uint64_t> cover;  // empty until known/assumed
    /// Cover the peer actually advertised (or that is globally decided —
    /// the assumed agreed-prefix baseline); never optimistic. Incarnation-
    /// root jumps are planned only from here (see plan_delta).
    std::vector<std::uint64_t> confirmed;
    TimePoint next_delta_ok = 0;       // delta-reply rate limiter
    TimePoint next_pull_ok = 0;        // pull spacing (see maybe_send_pull)
  };

  /// Sender-side state of one §5.3 catch-up session: a stop-and-wait burst
  /// window over chunk datagrams. `acked_*` is what the receiver confirmed
  /// (via the digest acks), `sent_*` where our cursor stands; a burst goes
  /// out only when the window drained or the go-back timer fired, so chunk
  /// loss never grows the in-flight set. All volatile — a sender crash
  /// simply loses the session and the receiver's next gossip recreates it
  /// from the receiver's re-advertised total.
  struct CatchUpSession {
    std::uint64_t acked_total = 0;      // receiver's confirmed prefix length
    std::uint64_t sent_total = 0;       // tail cursor (absolute position)
    std::uint64_t acked_snap_bytes = 0;
    std::uint64_t sent_snap_bytes = 0;
    std::uint64_t snap_total = 0;       // snapshot version being streamed
    TimePoint resend_at = 0;            // go-back deadline for the last burst
    TimePoint last_heard = 0;           // GC: drop silent sessions
  };

  void send_gossip_now();
  void gossip_tick();
  /// Digest mode's idle test: false when nothing changed since the last
  /// send and every peer is heard from and level with us.
  bool gossip_needed() const;
  void send_eager_deltas();
  /// Ships `plan` to `to` in datagrams of at most Env::max_datagram_bytes()
  /// each (suffix-in-seq-order chunks stay guard-acceptable on their own),
  /// bumping view.cover for each. With `want_reply`, at least one datagram
  /// goes out even for an empty plan (the pure-pull case).
  void send_delta_chunks(ProcessId to, PeerView& view, bool want_reply,
                         const std::vector<std::uint64_t>& my_cover,
                         const std::vector<const AppMsg*>& plan,
                         const char* detail);
  void maybe_send_delta_reply(ProcessId to);
  /// A pull: our digest to `to`, spaced by kDeltaReplyInterval per peer
  /// unless `window_applied` (we applied the whole window the last pull
  /// asked for and still lag).
  void maybe_send_pull(ProcessId to, bool window_applied = false);
  /// Returns the number of messages the contiguity guard rejected.
  std::size_t merge_delta(std::vector<AppMsg> msgs);
  void handle_round_info(ProcessId from, std::uint64_t peer_k,
                         std::uint64_t peer_total);
  void checkpoint_tick();
  void take_checkpoint();
  /// The sequencer of Fig. 2: proposes round k_ once, with as much of the
  /// pending backlog as fits a consensus value (encode_unordered, starting
  /// at sender k_ mod n), or empty when gossip shows this process lags.
  void maybe_propose();
  /// Writes a u32 count and the messages of unordered_ whose entries fit
  /// `budget`, in MsgId order: all when they fit, else a prefix of each
  /// sender's chain, senders in turn from `first` (PROTOCOL.md §5).
  std::size_t encode_unordered(BufWriter& w, std::size_t budget,
                               ProcessId first) const;
  /// Applies every locally-known decision starting at k_, then proposes.
  void drain();
  void apply_batch(const Bytes& value);
  /// A-delivers `msgs`, the entries just appended to agreed_ by a decided
  /// round or a state-transfer tail: each leaves Unordered and its durable
  /// record, is counted and traced, and goes to the sink.
  void deliver(const std::vector<AppMsg>& msgs);
  /// Reads the sealed record `key` once and runs `decode` over its body,
  /// which must consume it exactly. False when the key is absent or the
  /// record is torn (bad seal or decode failure; counted in corrupt_records
  /// and erased), so callers commit what `decode` filled only on true.
  bool load_record(const std::string& key,
                   const std::function<void(BufReader&)>& decode);
  // ---- §5.3 chunked catch-up sessions (sender side) ----------------------
  /// Creates (or resumes) the catch-up session for `to`, whose gossip just
  /// advertised `recipient_total` delivered messages, and pumps it.
  void state_pump_for(ProcessId to, std::uint64_t recipient_total);
  /// Sends the next burst of chunks if the stop-and-wait window allows.
  void state_pump(ProcessId to, CatchUpSession& s);
  /// Folds a digest's ack fields into the peer's session, detecting
  /// receiver restarts (total regression) as a session reset.
  void note_state_ack(ProcessId from, std::uint64_t peer_total,
                      std::uint64_t ack_snap_total,
                      std::uint64_t ack_snap_bytes);
  void gc_state_sessions();
  /// True while some live session still needs the explicit suffix (or the
  /// current snapshot) — take_checkpoint() defers compaction then, so an
  /// in-flight transfer is not invalidated mid-stream.
  bool compaction_deferred() const;
  // ---- receiver side -----------------------------------------------------
  void handle_snapshot_chunk(ProcessId from, const StateChunkMsg& s);
  void handle_tail_chunk(ProcessId from, const StateChunkMsg& s);
  void install_staged_snapshot(std::uint64_t state_k);
  /// An immediate unicast digest carrying our (k, total, cover, snapshot
  /// staging) position, in both gossip modes: the per-chunk catch-up ack
  /// and the reorder-repair pull. `detail` labels the trace event.
  void send_digest(ProcessId to, bool want_reply, const char* detail);
  void erase_unordered_record(const MsgId& id);
  void prune_unordered();

  /// Records a protocol trace event when the host installed a recorder.
  void trace(obs::EventKind kind, std::uint64_t k, MsgId msg = MsgId{},
             std::uint64_t arg = 0, std::string detail = {}) {
    if (tracer_ != nullptr) {
      tracer_->record(kind, env_.now(), k, msg, arg, std::move(detail));
    }
  }
  void bind_metrics();

  Env& env_;
  ConsensusService& cons_;
  DeliverySink& sink_;
  Options options_;
  ScopedStorage storage_;

  std::uint64_t k_ = 0;          // round counter kp
  std::uint64_t gossip_k_ = 0;   // highest round seen via gossip
  /// The round the last pull's offer window reaches (k_ + kOfferWindow when
  /// it left): applying up to it clocks the next pull.
  std::uint64_t pull_window_end_ = 0;
  AgreedLog agreed_;
  std::map<MsgId, AppMsg> unordered_;
  std::uint64_t incarnation_ = 0;
  std::uint64_t counter_ = 0;    // per-incarnation broadcast counter
  std::size_t max_payload_bytes_ = 0;  // set once, in the constructor
  std::uint32_t gossip_first_ = 0;  // rotates per full-set gossip datagram
  /// Live catch-up sessions we are serving, one per lagging peer. Volatile:
  /// a crash drops them and the receivers' gossip recreates them.
  std::map<ProcessId, CatchUpSession> state_sessions_;
  /// Encoded AppCheckpoint the snapshot phase streams from, cached so a
  /// multi-chunk stream encodes the base once. Valid while
  /// `snap_cache_total_ == agreed_.base_count()` and non-empty.
  Bytes snap_cache_;
  std::uint64_t snap_cache_total_ = 0;
  /// Receiver-side staging of an incoming snapshot: contiguous bytes of
  /// the `snap_stage_total_` version, installed once `snap_stage_size_`
  /// bytes landed. Volatile — a receiver crash restarts the snapshot, which
  /// is exactly what the re-advertised (smaller) total tells the sender.
  Bytes snap_stage_;
  std::uint64_t snap_stage_total_ = 0;
  std::uint64_t snap_stage_size_ = 0;
  std::vector<PeerView> peers_;  // indexed by ProcessId; sized in start()
  /// Volatile staging for delta messages that arrived ahead of their
  /// per-sender predecessor: merged into unordered_ as soon as the chain
  /// below them fills in, so a datagram reorder costs no extra round trip.
  /// Bounded; never logged (a lost entry is re-shipped by anti-entropy).
  std::map<MsgId, AppMsg> reorder_buf_;
  bool gossip_dirty_ = true;     // something changed since the last tick send
  std::uint32_t idle_ticks_ = 0;
  AbMetrics metrics_;
  obs::TraceRecorder* tracer_ = nullptr;      // host-owned; may be null
  obs::Histogram* batch_size_hist_ = nullptr;  // registry-owned; may be null
  /// Depth of the decided-but-undeliverable park buffer, observed whenever
  /// a decide lands above the contiguous prefix (log2 buckets).
  obs::Histogram* commit_gap_hist_ = nullptr;  // registry-owned; may be null
  /// The decided rounds in (k_, parked_walked_], kept while
  /// commit_gap_hist_ is bound: the park buffer.
  std::set<InstanceId> parked_;
  std::uint64_t parked_walked_ = 0;
  bool started_ = false;
  // Declared last: unbinds the metrics_ fields from the registry before the
  // slots above are destroyed (crash destroys this object, not the registry).
  obs::MetricsGroup metrics_group_;
};

}  // namespace abcast::core
