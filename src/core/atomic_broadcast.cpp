#include "core/atomic_broadcast.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "core/ab_wire.hpp"
#include "core/gossip_wire.hpp"
#include "storage/sealed_record.hpp"

namespace abcast::core {
namespace {

// GossipMsg (kAbGossip) and StateChunkMsg (kAbStateChunk) live in
// core/ab_wire.hpp; DigestMsg (kAbGossipDigest) in core/gossip_wire.hpp,
// next to the copy-free encoder and the delta planner. Every payload layout
// has a single definition site and a round-trip test (enforced by
// tools/ablint).

constexpr const char* kCkptKey = "ckpt";

/// Digest mode's keepalive floor: a fully idle process still gossips every
/// this many ticks.
constexpr std::uint32_t kGossipKeepalivePeriods = 8;

/// Decisions offered per gossip or pull from a lagging peer: bounds the
/// burst one pull triggers, and so how many rounds one round trip closes.
constexpr std::uint32_t kOfferWindow = 64;

/// Minimum spacing of delta replies, and of the pulls no applied window
/// clocks, to one peer: bounds the bytes a duplicated digest can trigger.
constexpr Duration kDeltaReplyInterval = millis(8);

// §5.3 catch-up session timing.
/// Chunks a session sends per burst before waiting for the receiver's ack
/// (bounds in-flight state bytes per lagging peer).
constexpr std::uint32_t kStateBurstChunks = 4;
/// Go-back timer of the stop-and-wait window: when the last burst is not
/// fully acked within this interval, the sender rewinds its cursor to the
/// receiver's last ack and resends.
constexpr Duration kStateRetransmitInterval = millis(30);
/// A session that has heard nothing from its receiver for this long is
/// dropped (the receiver's next gossip recreates it). Also bounds how long
/// a stuck session may defer checkpoint compaction.
constexpr Duration kStateSessionTimeout = millis(600);

std::string unordered_item_key(const MsgId& id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "u/%010u-%020llu", id.sender,
                static_cast<unsigned long long>(id.seq));
  return buf;
}

}  // namespace

AtomicBroadcast::AtomicBroadcast(Env& env, ConsensusService& consensus,
                                 DeliverySink& sink, Options options)
    : env_(env), cons_(consensus), sink_(sink), options_(options),
      storage_(env.storage(), "ab"),
      agreed_(env.group_size(),
              options.checkpointing || options.state_transfer),
      tracer_(env.tracer()) {
  options_.validate();
  // Every datagram that carries messages is sized to the limit: it must
  // hold the largest header, the digest's, and a 64-byte message.
  const std::size_t limit = env_.max_datagram_bytes();
  ABCAST_CHECK_MSG(
      limit >= digest_header_bytes(env.group_size()) + 80,
      "the datagram limit must fit a digest or chunk header plus one small "
      "message");
  // Admission: a message rides alone in each of its carriers — a proposal
  // (a value less its u32 count), full-set gossip, a delta, a tail chunk.
  const std::size_t room =
      std::min({cons_.max_value_bytes() - 4, limit - gossip_header_bytes(),
                limit - digest_header_bytes(env.group_size()),
                limit - state_chunk_header_bytes()});
  max_payload_bytes_ = room - delta_entry_bytes(AppMsg{});
  bind_metrics();
}

void AtomicBroadcast::bind_metrics() {
  auto* registry = env_.metrics_registry();
  if (registry == nullptr) return;
  const obs::Labels labels{{"node", std::to_string(env_.self())}};
  metrics_group_ = registry->group();
  metrics_group_.bind("ab_broadcasts", labels, &metrics_.broadcasts);
  metrics_group_.bind("ab_delivered", labels, &metrics_.delivered);
  metrics_group_.bind("ab_rounds_completed", labels,
                      &metrics_.rounds_completed);
  metrics_group_.bind("ab_replayed_rounds", labels, &metrics_.replayed_rounds);
  metrics_group_.bind("ab_proposals", labels, &metrics_.proposals);
  metrics_group_.bind("ab_empty_proposals", labels,
                      &metrics_.empty_proposals);
  metrics_group_.bind("ab_gossip_sent", labels, &metrics_.gossip_sent);
  metrics_group_.bind("ab_gossip_received", labels,
                      &metrics_.gossip_received);
  metrics_group_.bind("ab_gossip_bytes_sent", labels,
                      &metrics_.gossip_bytes_sent);
  metrics_group_.bind("ab_digest_sent", labels, &metrics_.digest_sent);
  metrics_group_.bind("ab_delta_sent", labels, &metrics_.delta_sent);
  metrics_group_.bind("ab_delta_msgs_sent", labels,
                      &metrics_.delta_msgs_sent);
  metrics_group_.bind("ab_delta_rejected", labels, &metrics_.delta_rejected);
  metrics_group_.bind("ab_gossip_suppressed", labels,
                      &metrics_.gossip_suppressed);
  metrics_group_.bind("ab_state_sent", labels, &metrics_.state_sent);
  metrics_group_.bind("ab_state_sent_trimmed", labels,
                      &metrics_.state_sent_trimmed);
  metrics_group_.bind("ab_state_applied", labels, &metrics_.state_applied);
  metrics_group_.bind("ab_state_chunks_sent", labels,
                      &metrics_.state_chunks_sent);
  metrics_group_.bind("ab_state_chunk_bytes_sent", labels,
                      &metrics_.state_chunk_bytes_sent);
  metrics_group_.bind("ab_state_chunks_applied", labels,
                      &metrics_.state_chunks_applied);
  metrics_group_.bind("ab_state_snapshots_applied", labels,
                      &metrics_.state_snapshots_applied);
  metrics_group_.bind("ab_state_resumes", labels, &metrics_.state_resumes);
  metrics_group_.bind("ab_checkpoints", labels, &metrics_.checkpoints);
  metrics_group_.bind("ab_corrupt_records", labels,
                      &metrics_.corrupt_records);
  batch_size_hist_ = &registry->histogram("ab_batch_size");
  commit_gap_hist_ = &registry->histogram("ab_commit_gap");
}

bool AtomicBroadcast::load_record(
    const std::string& key, const std::function<void(BufReader&)>& decode) {
  auto raw = storage_.get(key);
  if (!raw) return false;
  if (auto rec = unseal_record(*raw)) {
    try {
      BufReader r(*rec);
      decode(r);
      r.expect_done();
      return true;
    } catch (const CodecError&) {
    }
  }
  // A record that fails its seal or does not decode is a torn write:
  // count it and erase it, so the next recovery does not trip on it again.
  metrics_.corrupt_records += 1;
  storage_.erase(key);
  return false;
}

void AtomicBroadcast::start(bool recovering, std::uint64_t incarnation) {
  ABCAST_CHECK_MSG(!started_, "atomic broadcast started twice");
  started_ = true;
  incarnation_ = incarnation;
  counter_ = 0;
  peers_.assign(env_.group_size(), PeerView{});

  if (recovering) {
    // §5.1: resume from the logged (k, Agreed) checkpoint when present;
    // otherwise replay() reconstructs everything from Consensus decisions.
    // A damaged checkpoint is recovered around as if it never existed —
    // replay (and, with truncated logs, a state transfer from a peer)
    // rebuilds the sequence.
    if (options_.checkpointing) {
      std::uint64_t k = 0;
      AgreedLog agreed(env_.group_size());
      if (load_record(kCkptKey, [&](BufReader& r) {
            k = r.u64();
            agreed = AgreedLog::decode(r);
          })) {
        k_ = k;
        agreed_ = std::move(agreed);
        // Rebuild the application: install the checkpoint base (or the
        // initial state) and hand the explicit suffix to the sink again. It
        // was A-delivered before the crash, so unlike deliver() this neither
        // counts nor touches Unordered (prune_unordered() below does).
        if (agreed_.base()) {
          sink_.install_checkpoint(agreed_.base()->state);
        }
        trace(obs::EventKind::kCheckpoint, k_, MsgId{}, agreed_.total(),
              "load");
        std::uint64_t pos = agreed_.total() - agreed_.suffix().size();
        for (const auto& m : agreed_.suffix()) {
          trace(obs::EventKind::kDeliver, k_, m.id, pos++);
          sink_.deliver(m);
        }
      }
    }
    // §5.4: restore the durable Unordered set, one record per message. A
    // damaged record was torn by a crash inside the broadcast() that logged
    // it — the call never returned, so dropping the message does not
    // violate Validity.
    if (options_.log_unordered) {
      for (const auto& key : storage_.keys_with_prefix("u/")) {
        AppMsg m;
        if (load_record(key, [&](BufReader& r) { m = AppMsg::decode(r); })) {
          unordered_.emplace(m.id, std::move(m));
        }
      }
    }
    // The paper's replay(): re-apply every locally decided instance from
    // k_ on. Consensus has already reloaded its decision log, so each
    // iteration is a local lookup.
    const std::uint64_t k_before = k_;
    drain();
    metrics_.replayed_rounds = k_ - k_before;
    prune_unordered();
  }

  gossip_tick();
  if (options_.checkpointing) {
    env_.schedule_after(options_.checkpoint_period,
                        [this] { checkpoint_tick(); });
  }
  maybe_propose();
}

MsgId AtomicBroadcast::broadcast(Bytes payload) {
  ABCAST_CHECK_MSG(started_, "broadcast before start");
  if (payload.size() > max_payload_bytes_) {
    throw RequestRefused("payload of " + std::to_string(payload.size()) +
                         " B is above max_payload_bytes() = " +
                         std::to_string(max_payload_bytes_));
  }
  counter_ += 1;
  AppMsg m;
  m.id = MsgId{env_.self(), make_seq(incarnation_, counter_)};
  m.payload = std::move(payload);
  const MsgId id = m.id;
  unordered_.emplace(id, std::move(m));
  gossip_dirty_ = true;
  metrics_.broadcasts += 1;
  trace(obs::EventKind::kBroadcast, k_, id);

  if (options_.log_unordered) {
    // §5.4: make A-broadcast durable before returning, so the caller may
    // proceed without waiting for the ordering round. §5.5: log only the
    // new element, not the whole set.
    storage_.put(unordered_item_key(id),
                 seal_record(encode_to_bytes(unordered_.at(id))));
    // Durability barrier for deferred-sync backends (the segmented log in
    // kDeferred mode): §5.4's contract is that the record survives a crash
    // once this call returns, not merely once it is appended. No-op on
    // backends whose put is already synchronous.
    storage_.flush();
  }

  if (options_.eager_dissemination) {
    if (options_.digest_gossip) {
      // The receiver-side contiguity guard makes single-suffix pushes safe:
      // a datagram racing ahead of its predecessor on the non-FIFO channel
      // is simply rejected until the predecessor lands (or the next
      // anti-entropy round repairs it). Ship each peer only what our view
      // says it is missing.
      send_eager_deltas();
    } else {
      // Send a gossip datagram exactly like a tick, never a single message:
      // one racing ahead of its predecessor on the non-FIFO channel would
      // leave a process holding (p,s+1) without (p,s), a proposal could
      // carry it, and AgreedLog's duplicate filter would drop (p,s).
      send_gossip_now();
    }
  }

  maybe_propose();
  return id;
}

void AtomicBroadcast::erase_unordered_record(const MsgId& id) {
  if (options_.log_unordered) storage_.erase(unordered_item_key(id));
}

void AtomicBroadcast::prune_unordered() {
  for (auto it = unordered_.begin(); it != unordered_.end();) {
    if (agreed_.contains(it->first)) {
      erase_unordered_record(it->first);
      it = unordered_.erase(it);
      gossip_dirty_ = true;
    } else {
      ++it;
    }
  }
}

void AtomicBroadcast::maybe_propose() {
  // The sequencer task of Fig. 2: round k_ is proposed once, and round
  // k_ + 1 only after k_ decides (DESIGN.md §14). Propose whenever anything
  // is pending, or when gossip revealed we lag. Lagging, propose the empty
  // batch: round k_ is decided without our input, so the backlog cannot win
  // it; it stays in Unordered for the first round we are current in.
  if (cons_.proposed(k_) || cons_.decided(k_)) return;
  const bool lagging = gossip_k_ > k_;
  if (unordered_.empty() && !lagging) return;
  BufWriter w;
  std::size_t count = 0;
  if (lagging) {
    w.u32(0);
  } else {
    count = encode_unordered(w, cons_.max_value_bytes() - 4,
                             static_cast<ProcessId>(k_ % env_.group_size()));
  }
  metrics_.proposals += 1;
  if (count == 0) metrics_.empty_proposals += 1;
  cons_.propose(k_, std::move(w).take());
}

std::size_t AtomicBroadcast::encode_unordered(BufWriter& w,
                                              std::size_t budget,
                                              ProcessId first) const {
  std::size_t bytes = 0;
  for (const auto& [id, m] : unordered_) bytes += delta_entry_bytes(m);
  if (bytes <= budget) {
    w.u32(checked_u32(unordered_.size()));
    for (const auto& [id, m] : unordered_) m.encode(w);
    return unordered_.size();
  }
  // A prefix of each sender's chain keeps the dedup rule sound (a batch
  // holding (p, s+1) holds (p, s) unless (p, s) is agreed); rotating the
  // first sender keeps a flood from one from starving the others.
  const std::uint32_t n = env_.group_size();
  std::vector<std::size_t> take(n, 0);
  std::size_t count = 0;
  bytes = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId p = (first + i) % n;
    for (auto it = unordered_.lower_bound(MsgId{p, 0});
         it != unordered_.end() && it->first.sender == p; ++it) {
      const std::size_t entry = delta_entry_bytes(it->second);
      if (bytes + entry > budget) break;
      bytes += entry;
      take[p] += 1;
    }
    count += take[p];
  }
  w.u32(checked_u32(count));
  for (ProcessId p = 0; p < n; ++p) {  // sender-major: MsgId order
    auto it = unordered_.lower_bound(MsgId{p, 0});
    for (std::size_t j = 0; j < take[p]; ++j, ++it) it->second.encode(w);
  }
  return count;
}

void AtomicBroadcast::on_decided(InstanceId k) {
  if (k < k_) return;  // stale: already applied (e.g. via state transfer)
  if (k > k_ && commit_gap_hist_ != nullptr) {
    // Decided above the contiguous prefix: this value parks until the gap
    // at k_ closes. Record the park-buffer depth (decided-but-undeliverable
    // rounds). Each round is looked up once, for the decisions recovery
    // loaded without this callback; later ones arrive through it.
    for (std::uint64_t j = std::max(k_, parked_walked_) + 1; j < k; ++j) {
      if (cons_.decided(j)) parked_.insert(j);
    }
    parked_walked_ = std::max(parked_walked_, k);
    parked_.insert(k);
    commit_gap_hist_->observe(parked_.size());
  }
  drain();
}

void AtomicBroadcast::drain() {
  const std::uint64_t k_before = k_;
  while (auto decided = cons_.decision(k_)) {
    apply_batch(*decided);
  }
  parked_.erase(parked_.begin(), parked_.lower_bound(k_));
  if (k_ > k_before && gossip_k_ > k_) {
    // Still behind after applying decisions: pull from the peer furthest
    // ahead (it answers with an offer, see handle_round_info). Once the
    // whole window the last pull asked for is applied, the next pull
    // leaves at once, so catch-up runs at apply speed.
    const auto ahead = std::max_element(
        peers_.begin(), peers_.end(),
        [](const PeerView& a, const PeerView& b) { return a.k < b.k; });
    if (ahead != peers_.end() && ahead->k > k_) {
      maybe_send_pull(static_cast<ProcessId>(ahead - peers_.begin()),
                      /*window_applied=*/k_ >= pull_window_end_);
    }
  }
  maybe_propose();
}

void AtomicBroadcast::apply_batch(const Bytes& value) {
  auto batch = decode_batch(value);
  const auto delivered = agreed_.append(std::move(batch));
  if (batch_size_hist_ != nullptr) batch_size_hist_->observe(delivered.size());
  deliver(delivered);
  // Messages that were in the decided batch but skipped as stale are also
  // covered by Agreed now; drop any lingering unordered copies.
  prune_unordered();
  k_ += 1;
  metrics_.rounds_completed += 1;
  gossip_dirty_ = true;  // round + total advanced: peers should hear about it
}

void AtomicBroadcast::deliver(const std::vector<AppMsg>& msgs) {
  std::uint64_t pos = agreed_.total() - msgs.size();
  for (const auto& m : msgs) {
    erase_unordered_record(m.id);
    unordered_.erase(m.id);
    metrics_.delivered += 1;
    trace(obs::EventKind::kDeliver, k_, m.id, pos++);
    sink_.deliver(m);
  }
  if (!msgs.empty()) gossip_dirty_ = true;  // total advanced
}

std::vector<std::uint64_t> AtomicBroadcast::compute_cover() const {
  std::vector<std::uint64_t> cover(env_.group_size(), 0);
  for (std::size_t p = 0; p < cover.size(); ++p) {
    cover[p] = agreed_.vc().last_of(static_cast<ProcessId>(p));
  }
  for (const auto& [id, m] : unordered_) {
    if (id.sender < cover.size() && seq_extends(cover[id.sender], id.seq)) {
      cover[id.sender] = id.seq;
    }
  }
  return cover;
}

void AtomicBroadcast::send_gossip_now() {
  if (options_.digest_gossip) {
    // Anti-entropy advertisement: a few bytes per sender, independent of
    // how many messages are waiting. want_reply pulls deltas from peers.
    // The snapshot-staging ack fields keep a catch-up sender's view of our
    // progress truthful even when its per-chunk acks are lost.
    const Wire wire =
        make_digest_wire(k_, agreed_.total(), /*want_reply=*/true,
                         compute_cover(), {}, snap_stage_total_,
                         snap_stage_.size());
    metrics_.gossip_bytes_sent += wire.payload.size() * env_.group_size();
    env_.multisend(wire);
    metrics_.gossip_sent += 1;
    metrics_.digest_sent += 1;
    trace(obs::EventKind::kGossipSend, k_, MsgId{}, unordered_.size(),
          "digest");
    return;
  }
  // Full-set mode: encode the datagram straight off unordered_ — no
  // intermediate vector of AppMsg copies — and let multisend share the one
  // encoding across every recipient.
  BufWriter w;
  w.u64(k_);
  w.u64(agreed_.total());
  encode_unordered(w, env_.max_datagram_bytes() - gossip_header_bytes(),
                   gossip_first_++ % env_.group_size());
  const Wire wire{MsgType::kAbGossip, std::move(w).take()};
  metrics_.gossip_bytes_sent += wire.payload.size() * env_.group_size();
  env_.multisend(wire);
  metrics_.gossip_sent += 1;
  trace(obs::EventKind::kGossipSend, k_, MsgId{}, unordered_.size(), "full");
}

bool AtomicBroadcast::gossip_needed() const {
  if (gossip_dirty_) return true;
  if (gossip_k_ > k_) return true;  // we lag: keep soliciting help
  const auto my_cover = compute_cover();
  for (std::size_t p = 0; p < peers_.size(); ++p) {
    if (p == env_.self()) continue;
    const PeerView& view = peers_[p];
    if (!view.heard) return true;
    if (view.k < k_ || view.total < agreed_.total()) return true;
    if (view.cover.size() == my_cover.size()) {
      for (std::size_t q = 0; q < my_cover.size(); ++q) {
        // Either direction: the peer lags us (keep advertising so it pulls)
        // or we lag the peer (our digest is the pull).
        if (view.cover[q] != my_cover[q]) return true;
      }
    }
  }
  return false;
}

void AtomicBroadcast::gossip_tick() {
  gc_state_sessions();
  bool send = true;
  if (options_.digest_gossip) {
    // Digest mode skips idle ticks. Keepalive floor: even a fully idle
    // group gossips every N periods, so the fair-lossy channel still
    // delivers our view infinitely often (the round-lag and cover-lag
    // repairs below depend on that). Full-set mode sends on every tick.
    idle_ticks_ += 1;
    send = idle_ticks_ >= kGossipKeepalivePeriods || gossip_needed();
  }
  if (send) {
    send_gossip_now();
    idle_ticks_ = 0;
    gossip_dirty_ = false;
  } else {
    metrics_.gossip_suppressed += 1;
  }
  env_.schedule_after(options_.gossip_period, [this] { gossip_tick(); });
}

void AtomicBroadcast::send_eager_deltas() {
  const auto my_cover = compute_cover();
  for (std::size_t p = 0; p < peers_.size(); ++p) {
    if (p == env_.self()) continue;
    PeerView& view = peers_[p];
    if (view.cover.size() != my_cover.size()) {
      // No digest heard from this peer yet: assume it holds our agreed
      // prefix and nothing more. Wrong guesses are cheap — its contiguity
      // guard drops what it cannot take and the next anti-entropy round
      // repairs the view. The agreed prefix is globally decided, so it
      // doubles as the confirmed baseline for root-jump planning.
      view.cover.resize(my_cover.size(), 0);
      for (std::size_t q = 0; q < view.cover.size(); ++q) {
        view.cover[q] = agreed_.vc().last_of(static_cast<ProcessId>(q));
      }
      view.confirmed = view.cover;
    }
    const auto plan = plan_delta(unordered_, view.cover, view.confirmed);
    if (plan.empty()) continue;
    send_delta_chunks(static_cast<ProcessId>(p), view, /*want_reply=*/false,
                      my_cover, plan, "eager");
  }
}

void AtomicBroadcast::send_delta_chunks(
    ProcessId to, PeerView& view, bool want_reply,
    const std::vector<std::uint64_t>& my_cover,
    const std::vector<const AppMsg*>& plan, const char* detail) {
  const std::size_t header = digest_header_bytes(my_cover.size());
  const std::size_t budget = env_.max_datagram_bytes();
  std::vector<const AppMsg*> chunk;
  std::size_t chunk_bytes = header;
  const auto flush = [&] {
    const Wire wire =
        make_digest_wire(k_, agreed_.total(), want_reply, my_cover, chunk,
                         snap_stage_total_, snap_stage_.size());
    metrics_.gossip_bytes_sent += wire.payload.size();
    env_.send(to, wire);
    metrics_.delta_sent += 1;
    metrics_.delta_msgs_sent += chunk.size();
    // Optimistically assume delivery so back-to-back broadcasts ship each
    // message once; the peer's next digest overwrites with the truth.
    for (const auto* m : chunk) {
      if (m->id.sender < view.cover.size()) view.cover[m->id.sender] = m->id.seq;
    }
    trace(obs::EventKind::kGossipSend, k_, MsgId{}, chunk.size(), detail);
    chunk.clear();
    chunk_bytes = header;
  };
  for (const AppMsg* m : plan) {
    const std::size_t entry = delta_entry_bytes(*m);
    if (chunk_bytes + entry > budget) flush();
    chunk.push_back(m);
    chunk_bytes += entry;
  }
  if (!chunk.empty() || want_reply) flush();
}

void AtomicBroadcast::maybe_send_delta_reply(ProcessId to) {
  PeerView& view = peers_[to];
  const auto my_cover = compute_cover();
  if (view.cover.size() != my_cover.size()) return;
  const auto plan = plan_delta(unordered_, view.cover, view.confirmed);
  bool i_lack = false;
  for (std::size_t q = 0; q < my_cover.size(); ++q) {
    if (view.confirmed.size() == my_cover.size() &&
        view.confirmed[q] > my_cover[q]) {
      i_lack = true;
      break;
    }
  }
  // Nothing to ship and nothing to pull: the exchange is settled. This is
  // what terminates digest ping-pong between even peers.
  if (plan.empty() && !i_lack) return;
  const TimePoint now = env_.now();
  if (now < view.next_delta_ok) return;  // rate limit per peer
  view.next_delta_ok = now + kDeltaReplyInterval;
  send_delta_chunks(to, view, /*want_reply=*/i_lack, my_cover, plan, "delta");
}

std::size_t AtomicBroadcast::merge_delta(std::vector<AppMsg> msgs) {
  if (msgs.empty()) return 0;
  // Contiguity guard: accept a message only if it extends the local
  // per-sender coverage. This is what keeps the Unordered set a gap-free
  // chain above the Agreed vector clock no matter how deltas are pushed,
  // reordered, duplicated, or lost — the property the AgreedLog
  // duplicate-suppression rule depends on.
  static constexpr std::size_t kReorderBufCap = 1024;
  std::size_t rejected = 0;
  auto cover = compute_cover();
  for (auto& m : msgs) {
    const MsgId id = m.id;
    if (id.sender >= cover.size()) continue;  // malformed sender: drop
    // At or below our frontier: already held or agreed. (An orphaned
    // prior-incarnation suffix also lands here; it travels via its
    // sender's proposals, never via gossip — see DESIGN.md.)
    if (id.seq <= cover[id.sender]) continue;
    if (!seq_extends(cover[id.sender], id.seq)) {
      // Racing ahead of its predecessor on the non-FIFO channel: park it
      // until the chain below fills in, so the reorder costs no retransmit.
      metrics_.delta_rejected += 1;
      rejected += 1;
      if (reorder_buf_.size() < kReorderBufCap) {
        reorder_buf_.try_emplace(id, std::move(m));
      }
      continue;
    }
    cover[id.sender] = id.seq;
    const auto [it, inserted] = unordered_.try_emplace(id, std::move(m));
    if (inserted) gossip_dirty_ = true;
  }
  // Drain the reorder buffer: repeatedly admit entries the guard now
  // accepts (MsgId order walks each sender's parked run in seq order, so
  // one sweep usually finishes; a second confirms the fixpoint). Entries
  // at or below cover are stale — drop them here, which also garbage
  // collects the buffer as rounds advance.
  bool progress = !reorder_buf_.empty();
  while (progress) {
    progress = false;
    for (auto it = reorder_buf_.begin(); it != reorder_buf_.end();) {
      const MsgId id = it->first;
      if (id.seq <= cover[id.sender]) {
        it = reorder_buf_.erase(it);
        continue;
      }
      if (!seq_extends(cover[id.sender], id.seq)) {
        ++it;
        continue;
      }
      cover[id.sender] = id.seq;
      const auto [uit, inserted] =
          unordered_.try_emplace(id, std::move(it->second));
      if (inserted) gossip_dirty_ = true;
      it = reorder_buf_.erase(it);
      progress = true;
    }
  }
  return rejected;
}

void AtomicBroadcast::maybe_send_pull(ProcessId to, bool window_applied) {
  // Advertise our true round and cover to `to` now instead of a gossip
  // period later: after a rejected delta the sender re-plans its delta from
  // our cover, and when we lag it offers the decisions we miss
  // (handle_round_info). Pulls are spaced per peer, except the one an
  // applied window clocks: a duplicated datagram applies no new round, so
  // it cannot trigger that one.
  PeerView& view = peers_[to];
  const TimePoint now = env_.now();
  if (!window_applied && now < view.next_pull_ok) return;
  view.next_pull_ok = now + kDeltaReplyInterval;
  pull_window_end_ = k_ + kOfferWindow;
  send_digest(to, /*want_reply=*/true, "pull");
}

void AtomicBroadcast::handle_round_info(ProcessId from, std::uint64_t peer_k,
                                        std::uint64_t peer_total) {
  // multisend hands us our own gossip back, with a round we have since left.
  if (from == env_.self()) return;
  if (peer_k > k_) {
    const bool newly_behind = peer_k > gossip_k_;
    gossip_k_ = std::max(gossip_k_, peer_k);  // the sender is ahead
    if (newly_behind && from < peers_.size()) {
      // Solicit the missing decisions now, not when the sender's next
      // gossip hears our round.
      maybe_send_pull(from);
    }
  } else if (options_.state_transfer && k_ > peer_k + options_.delta) {
    state_pump_for(from, peer_total);  // Fig. 3 line d: sender lags far behind
  } else if (peer_k < k_) {
    // The sender lags within Δ (or state transfer is off): offer it the
    // decisions it is missing. Deeper than one window, follow the window
    // with our digest, so it learns how far behind it is now rather than at
    // our next gossip, and keeps pulling.
    cons_.offer_decisions(from, peer_k, kOfferWindow);
    if (k_ > peer_k + kOfferWindow) {
      send_digest(from, /*want_reply=*/false, "deep_offer");
    }
  }
}

void AtomicBroadcast::on_message(ProcessId from, const Wire& msg) {
  if (msg.type == MsgType::kAbGossip) {
    auto g = decode_from_bytes<GossipMsg>(msg.payload);
    metrics_.gossip_received += 1;
    trace(obs::EventKind::kGossipRecv, g.k, MsgId{}, from, "full");
    if (from < peers_.size()) {
      PeerView& view = peers_[from];
      view.heard = true;
      view.k = g.k;
      view.total = g.total;
    }
    for (auto& m : g.unordered) {
      const MsgId id = m.id;
      if (agreed_.contains(id)) continue;
      const auto [it, inserted] = unordered_.try_emplace(id, std::move(m));
      if (inserted) gossip_dirty_ = true;
    }
    // Full-set gossip carries no snapshot acks; the advertised total is
    // still the tail-phase ack of a catch-up session.
    note_state_ack(from, g.total, 0, 0);
    handle_round_info(from, g.k, g.total);
    drain();
    return;
  }
  if (msg.type == MsgType::kAbGossipDigest) {
    auto g = decode_from_bytes<DigestMsg>(msg.payload);
    metrics_.gossip_received += 1;
    trace(obs::EventKind::kGossipRecv, g.k, MsgId{}, from,
          g.msgs.empty() ? "digest" : "delta");
    if (from < peers_.size() && g.cover.size() == env_.group_size()) {
      PeerView& view = peers_[from];
      view.heard = true;
      view.k = g.k;
      view.total = g.total;
      view.cover = g.cover;  // received truth overwrites optimism
      view.confirmed = std::move(g.cover);
    }
    const std::size_t rejected = merge_delta(std::move(g.msgs));
    note_state_ack(from, g.total, g.ack_snap_total, g.ack_snap_bytes);
    handle_round_info(from, g.k, g.total);
    // peers_ is empty until start(); both hosts validate the frame sender
    // today, but a digest arriving early (or from a future host without
    // sender validation) must not index past it.
    if (from != env_.self() && from < peers_.size()) {
      if (g.want_reply) maybe_send_delta_reply(from);
      if (rejected > 0) maybe_send_pull(from);
    }
    drain();
    return;
  }
  if (msg.type == MsgType::kAbStateChunk) {
    auto s = decode_from_bytes<StateChunkMsg>(msg.payload);
    // Mirror of the sender's session gate (k_ > peer_k + Δ, chunks labeled
    // k_ - 1): accept at k_ + Δ == s.k too, or a receiver lagging exactly
    // Δ+1 rounds refuses the very transfer the sender insists on — and
    // never hears round replays either, a livelock when the cluster idles.
    if (options_.state_transfer && k_ + options_.delta <= s.k) {
      if (s.snapshot) {
        handle_snapshot_chunk(from, s);
      } else {
        handle_tail_chunk(from, s);  // Fig. 3 lines e–f, chunked
      }
    } else if (s.k > k_) {
      gossip_k_ = std::max(gossip_k_, s.k);  // small de-synchronization
      // React now rather than on the next gossip tick: the lag this chunk
      // just revealed is exactly what maybe_propose's catch-up rule feeds
      // on (the timer-only propose-on-lag stall).
      drain();
    }
    return;
  }
  ABCAST_CHECK_MSG(false, "unexpected ab message type");
}

// ---- §5.3 chunked catch-up sessions, sender side --------------------------

void AtomicBroadcast::state_pump_for(ProcessId to,
                                     std::uint64_t recipient_total) {
  if (!options_.state_transfer || k_ < 1 || to == env_.self()) return;
  auto it = state_sessions_.find(to);
  if (it == state_sessions_.end()) {
    CatchUpSession s;
    s.acked_total = std::min(recipient_total, agreed_.total());
    metrics_.state_sent += 1;
    // Tail-only: the receiver holds our application checkpoint's prefix
    // (base_count is 0 without one), so no snapshot phase is needed.
    if (s.acked_total >= agreed_.base_count()) metrics_.state_sent_trimmed += 1;
    it = state_sessions_.emplace(to, std::move(s)).first;
  }
  it->second.last_heard = env_.now();
  state_pump(to, it->second);
}

void AtomicBroadcast::note_state_ack(ProcessId from, std::uint64_t peer_total,
                                     std::uint64_t ack_snap_total,
                                     std::uint64_t ack_snap_bytes) {
  auto it = state_sessions_.find(from);
  if (it == state_sessions_.end()) return;
  CatchUpSession& s = it->second;
  s.last_heard = env_.now();
  if (peer_total < s.acked_total) {
    // The receiver's delivered count regressed: it crashed mid-transfer and
    // recovered from an older checkpoint. Drop the session; its next gossip
    // recreates one that resumes from the re-advertised total.
    state_sessions_.erase(it);
    return;
  }
  s.acked_total = std::max(s.acked_total,
                           std::min(peer_total, agreed_.total()));
  if (s.snap_total != 0 && peer_total < s.snap_total) {
    if (ack_snap_total == s.snap_total) {
      s.acked_snap_bytes = std::max(s.acked_snap_bytes, ack_snap_bytes);
    } else {
      // The receiver is not staging our snapshot version (no chunk landed
      // yet, it restarted without regressing its total, or a newer version
      // superseded ours): nothing of our stream is staged there.
      s.acked_snap_bytes = 0;
    }
  }
}

void AtomicBroadcast::state_pump(ProcessId to, CatchUpSession& s) {
  ABCAST_CHECK(k_ >= 1);
  const TimePoint now = env_.now();
  const std::uint64_t state_k = k_ - 1;
  const std::uint64_t base_count = agreed_.base_count();

  if (agreed_.base() && s.acked_total < base_count) {
    // Snapshot phase: the receiver predates our application checkpoint, so
    // the explicit suffix alone cannot reach it — stream the encoded
    // checkpoint in byte slices. Encoded once per base version.
    if (snap_cache_.empty() || snap_cache_total_ != base_count) {
      snap_cache_ = encode_to_bytes(*agreed_.base());
      snap_cache_total_ = base_count;
    }
    if (s.snap_total != snap_cache_total_) {
      // First snapshot burst, or the base was re-compacted mid-session
      // (compaction deferral timed out): restart the stream at this version.
      s.snap_total = snap_cache_total_;
      s.sent_snap_bytes = 0;
      s.acked_snap_bytes = 0;
    }
    if (s.acked_snap_bytes < s.sent_snap_bytes) {
      if (now < s.resend_at) return;  // burst in flight; wait for acks
      s.sent_snap_bytes = s.acked_snap_bytes;  // go-back to the last ack
      metrics_.state_resumes += 1;
    }
    if (s.sent_snap_bytes >= snap_cache_.size()) return;  // install pending
    const std::size_t slice =
        env_.max_datagram_bytes() - state_snap_header_bytes();
    for (std::uint32_t b = 0; b < kStateBurstChunks &&
                              s.sent_snap_bytes < snap_cache_.size();
         ++b) {
      StateChunkMsg c;
      c.k = state_k;
      c.snapshot = true;
      c.offset = s.sent_snap_bytes;
      c.snap_total = s.snap_total;
      c.snap_size = snap_cache_.size();
      const auto begin = snap_cache_.begin() +
                         static_cast<std::ptrdiff_t>(s.sent_snap_bytes);
      const std::size_t len = std::min<std::size_t>(
          slice, snap_cache_.size() - s.sent_snap_bytes);
      c.data.assign(begin, begin + static_cast<std::ptrdiff_t>(len));
      const Wire wire = make_wire(MsgType::kAbStateChunk, c);
      metrics_.state_chunks_sent += 1;
      metrics_.state_chunk_bytes_sent += wire.payload.size();
      trace(obs::EventKind::kStateTransfer, state_k, MsgId{},
            wire.payload.size(), "send_snap");
      env_.send(to, wire);
      s.sent_snap_bytes += len;
    }
    s.resend_at = now + kStateRetransmitInterval;
    return;
  }

  // Tail phase: stream the explicit suffix from the receiver's confirmed
  // position, which the snapshot phase left at or above base_count (§5.3:
  // "only those messages that are not known by the recipient"). Only the
  // final chunk carries the round jump, so a lost tail leaves the receiver
  // visibly lagging and the session resumes from its next ack.
  if (s.sent_total < s.acked_total) s.sent_total = s.acked_total;
  if (s.acked_total < s.sent_total) {
    if (now < s.resend_at) return;  // burst in flight; wait for acks
    s.sent_total = s.acked_total;  // go-back to the last ack
    metrics_.state_resumes += 1;
  }
  const std::vector<AppMsg>& suffix = agreed_.suffix();
  const std::size_t budget = env_.max_datagram_bytes();
  for (std::uint32_t b = 0; b < kStateBurstChunks; ++b) {
    StateChunkMsg c;
    c.k = state_k;
    c.offset = s.sent_total;
    std::size_t bytes = state_chunk_header_bytes();
    std::uint64_t pos = s.sent_total;
    while (pos < agreed_.total()) {
      const AppMsg& m = suffix[static_cast<std::size_t>(pos - base_count)];
      const std::size_t entry = delta_entry_bytes(m);
      if (bytes + entry > budget) break;
      c.msgs.push_back(m);
      bytes += entry;
      ++pos;
    }
    c.final_chunk = pos >= agreed_.total();
    const Wire wire = make_wire(MsgType::kAbStateChunk, c);
    metrics_.state_chunks_sent += 1;
    metrics_.state_chunk_bytes_sent += wire.payload.size();
    trace(obs::EventKind::kStateTransfer, state_k, MsgId{},
          wire.payload.size(), "send_chunk");
    env_.send(to, wire);
    s.sent_total = pos;
    if (c.final_chunk) break;
  }
  s.resend_at = now + kStateRetransmitInterval;
}

void AtomicBroadcast::gc_state_sessions() {
  if (state_sessions_.empty()) return;
  const TimePoint now = env_.now();
  for (auto it = state_sessions_.begin(); it != state_sessions_.end();) {
    if (now - it->second.last_heard > kStateSessionTimeout) {
      it = state_sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool AtomicBroadcast::compaction_deferred() const {
  // While any live session still streams, compacting would clear the suffix
  // it reads from (tail phase) or retire the snapshot version in flight
  // (snapshot phase) and restart the transfer — a livelock when checkpoints
  // outpace one transfer. Sessions are GC'd after kStateSessionTimeout, so
  // a dead receiver defers compaction only boundedly.
  for (const auto& [peer, s] : state_sessions_) {
    (void)peer;
    if (s.acked_total < agreed_.total()) return true;
  }
  return false;
}

// ---- §5.3 chunked catch-up sessions, receiver side ------------------------

void AtomicBroadcast::handle_snapshot_chunk(ProcessId from,
                                            const StateChunkMsg& s) {
  // A snapshot we already cover adds nothing; ack our position so the
  // sender's session advances to the tail phase.
  if (s.snap_total == 0 || agreed_.total() >= s.snap_total) {
    send_digest(from, /*want_reply=*/false, "state_ack");
    return;
  }
  if (s.snap_total > snap_stage_total_) {
    // Prefer the newer snapshot (restart staging); never restart for an
    // older version, or two concurrent senders could ping-pong the staging
    // forever.
    snap_stage_total_ = s.snap_total;
    snap_stage_size_ = s.snap_size;
    snap_stage_.clear();
  }
  if (s.snap_total == snap_stage_total_ && s.offset == snap_stage_.size() &&
      !s.data.empty()) {
    // Contiguous extension; anything else (loss, reorder, duplicate) is
    // ignored and the ack below tells the sender where to resume.
    snap_stage_.insert(snap_stage_.end(), s.data.begin(), s.data.end());
    metrics_.state_chunks_applied += 1;
    if (snap_stage_size_ != 0 && snap_stage_.size() >= snap_stage_size_) {
      install_staged_snapshot(s.k);
    }
  }
  send_digest(from, /*want_reply=*/false, "state_ack");
}

void AtomicBroadcast::install_staged_snapshot(std::uint64_t state_k) {
  AppCheckpoint ckpt;
  bool ok = false;
  try {
    BufReader r(snap_stage_);
    ckpt = AppCheckpoint::decode(r);
    r.expect_done();
    ok = ckpt.count == snap_stage_total_;
  } catch (const CodecError&) {
  }
  snap_stage_.clear();
  snap_stage_size_ = 0;
  if (!ok) {
    // Torn stage (interleaved versions): drop it. Our next ack advertises
    // zero staged bytes and the sender's go-back machinery re-streams.
    metrics_.corrupt_records += 1;
    snap_stage_total_ = 0;
    return;
  }
  if (agreed_.total() >= ckpt.count) return;  // raced past it meanwhile
  // Skip the Consensus instances the checkpoint covers: replace our prefix
  // wholesale (total order guarantees ours is a prefix of the checkpoint's)
  // and rebuild the application from it. The round is NOT adopted here —
  // only the tail phase's final chunk advances k, so a crash between the
  // two phases resumes cleanly from the re-advertised total.
  trace(obs::EventKind::kStateTransfer, state_k, MsgId{}, ckpt.count,
        "adopt_snap");
  sink_.install_checkpoint(ckpt.state);
  agreed_.reset_to_base(std::move(ckpt));
  metrics_.state_snapshots_applied += 1;
  gossip_dirty_ = true;
  prune_unordered();
  if (options_.checkpointing) {
    // Make the jump durable; otherwise a crash would replay from the old
    // checkpoint into truncated territory.
    take_checkpoint();
  }
  drain();
}

void AtomicBroadcast::handle_tail_chunk(ProcessId from,
                                        const StateChunkMsg& s) {
  // A chunk beyond our frontier cannot extend it (its predecessor was lost
  // or reordered); the ack below advertises our true total and the sender's
  // window rewinds. A chunk at or below it overlaps what we hold — the
  // clock filters the overlap and append_sequence delivers only the rest.
  if (s.offset > agreed_.total()) {
    send_digest(from, /*want_reply=*/false, "state_ack");
    return;
  }
  if (!s.msgs.empty() || s.final_chunk) {
    trace(obs::EventKind::kStateTransfer, s.k, MsgId{},
          s.offset + s.msgs.size(), "adopt_chunk");
  }
  deliver(agreed_.append_sequence(s.msgs));
  metrics_.state_chunks_applied += 1;
  if (s.final_chunk && s.k + 1 > k_) {
    // The stream is complete: adopt the sender's round (Fig. 3 line f).
    k_ = s.k + 1;
    gossip_dirty_ = true;
    metrics_.state_applied += 1;
    prune_unordered();
    if (options_.checkpointing) take_checkpoint();
    drain();
  }
  send_digest(from, /*want_reply=*/false, "state_ack");
}

void AtomicBroadcast::send_digest(ProcessId to, bool want_reply,
                                  const char* detail) {
  // Every digest carries the snapshot-staging ack fields, so a catch-up
  // sender's view of our progress stays truthful even when its per-chunk
  // acks are lost. Sent in both gossip modes: the catch-up sender
  // understands digest datagrams even when periodic gossip is full-set.
  const Wire wire =
      make_digest_wire(k_, agreed_.total(), want_reply, compute_cover(), {},
                       snap_stage_total_, snap_stage_.size());
  metrics_.gossip_bytes_sent += wire.payload.size();
  env_.send(to, wire);
  metrics_.digest_sent += 1;
  trace(obs::EventKind::kGossipSend, k_, MsgId{}, 0, detail);
}

void AtomicBroadcast::checkpoint_tick() {
  take_checkpoint();
  env_.schedule_after(options_.checkpoint_period,
                      [this] { checkpoint_tick(); });
}

void AtomicBroadcast::take_checkpoint() {
  // §5.2 (Fig. 4 line b): fold the delivered suffix into an application
  // checkpoint before logging, bounding both the record and the log.
  // Deferred while a catch-up session is mid-stream (see
  // compaction_deferred) — the (k, Agreed) record below is still written,
  // just with the suffix explicit.
  if (options_.app_checkpointing && !compaction_deferred()) {
    agreed_.compact(sink_.take_checkpoint());
    snap_cache_.clear();  // base version changed; re-encoded on demand
    snap_cache_total_ = 0;
  }
  BufWriter w;
  w.u64(k_);
  agreed_.encode(w);
  storage_.put(kCkptKey, seal_record(w.data()));
  metrics_.checkpoints += 1;
  trace(obs::EventKind::kCheckpoint, k_, MsgId{}, agreed_.total(), "take");
  if (options_.truncate_logs) {
    // Fig. 4 line c, widened to consensus-internal records. Keep a Δ-deep
    // tail so any peer close enough NOT to trigger a state transfer can
    // still run the instances it needs (see consensus.hpp truncate_below).
    const std::uint64_t bound = k_ > options_.delta ? k_ - options_.delta : 0;
    cons_.truncate_below(bound);
  }
}

void AtomicBroadcast::on_peer_truncated(ProcessId from, InstanceId k) {
  (void)k;
  // The peer asked about an instance we truncated; only a state transfer
  // can catch it up (Options::validate() guarantees it is enabled). Open
  // (or pump) its catch-up session from its last advertised position — the
  // same bounded chunk path as gossip-triggered transfers, so this trigger
  // can never regress to one oversized frame.
  if (k_ < 1 || from >= peers_.size()) return;
  const PeerView& view = peers_[from];
  state_pump_for(from, view.heard ? view.total : 0);
}

}  // namespace abcast::core
