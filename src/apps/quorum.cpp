#include "apps/quorum.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/logging.hpp"

namespace abcast::apps {
namespace {

void encode_version(BufWriter& w, const QuorumVersion& v) {
  w.u64(v.counter);
  w.u32(v.writer);
}

QuorumVersion decode_version(BufReader& r) {
  QuorumVersion v;
  v.counter = r.u64();
  v.writer = r.u32();
  return v;
}

struct ReadMsg {
  std::uint64_t op = 0;
  std::uint64_t epoch = 0;
  std::string key;

  void encode(BufWriter& w) const {
    w.u64(op);
    w.u64(epoch);
    w.str(key);
  }
  static ReadMsg decode(BufReader& r) {
    ReadMsg m;
    m.op = r.u64();
    m.epoch = r.u64();
    m.key = r.str();
    return m;
  }
};

struct ReadReplyMsg {
  std::uint64_t op = 0;
  std::uint64_t epoch = 0;
  bool has_value = false;
  std::string value;
  QuorumVersion version;

  void encode(BufWriter& w) const {
    w.u64(op);
    w.u64(epoch);
    w.boolean(has_value);
    w.str(value);
    encode_version(w, version);
  }
  static ReadReplyMsg decode(BufReader& r) {
    ReadReplyMsg m;
    m.op = r.u64();
    m.epoch = r.u64();
    m.has_value = r.boolean();
    m.value = r.str();
    m.version = decode_version(r);
    return m;
  }
};

struct WriteMsg {
  std::uint64_t op = 0;
  std::uint64_t epoch = 0;
  std::string key;
  std::string value;
  QuorumVersion version;

  void encode(BufWriter& w) const {
    w.u64(op);
    w.u64(epoch);
    w.str(key);
    w.str(value);
    encode_version(w, version);
  }
  static WriteMsg decode(BufReader& r) {
    WriteMsg m;
    m.op = r.u64();
    m.epoch = r.u64();
    m.key = r.str();
    m.value = r.str();
    m.version = decode_version(r);
    return m;
  }
};

struct AckMsg {
  std::uint64_t op = 0;
  std::uint64_t epoch = 0;

  void encode(BufWriter& w) const {
    w.u64(op);
    w.u64(epoch);
  }
  static AckMsg decode(BufReader& r) {
    AckMsg m;
    m.op = r.u64();
    m.epoch = r.u64();
    return m;
  }
};

}  // namespace

// ------------------------------------------------------------ QuorumConfig

std::uint32_t QuorumConfig::total_votes() const {
  std::uint32_t total = 0;
  for (const auto v : votes) total += v;
  return total;
}

void QuorumConfig::validate(std::uint32_t n) const {
  ABCAST_CHECK_MSG(votes.size() == n, "one vote weight per replica");
  const std::uint32_t total = total_votes();
  ABCAST_CHECK_MSG(total > 0, "no votes");
  ABCAST_CHECK_MSG(read_quorum >= 1 && read_quorum <= total,
                   "read quorum out of range");
  ABCAST_CHECK_MSG(write_quorum >= 1 && write_quorum <= total,
                   "write quorum out of range");
  // Gifford's conditions: reads see the latest write; writes serialize.
  ABCAST_CHECK_MSG(read_quorum + write_quorum > total,
                   "R + W must exceed the total votes");
  ABCAST_CHECK_MSG(2 * write_quorum > total, "2W must exceed total votes");
}

void QuorumConfig::encode(BufWriter& w) const {
  w.vec(votes, [](BufWriter& ww, std::uint32_t v) { ww.u32(v); });
  w.u32(read_quorum);
  w.u32(write_quorum);
}

QuorumConfig QuorumConfig::decode(BufReader& r) {
  QuorumConfig c;
  c.votes = r.vec<std::uint32_t>([](BufReader& rr) { return rr.u32(); });
  c.read_quorum = r.u32();
  c.write_quorum = r.u32();
  return c;
}

QuorumConfig QuorumConfig::uniform(std::uint32_t n) {
  QuorumConfig c;
  c.votes.assign(n, 1);
  c.read_quorum = n / 2 + 1;
  c.write_quorum = n / 2 + 1;
  return c;
}

// ------------------------------------------------------- QuorumReplicaNode

QuorumReplicaNode::QuorumReplicaNode(Env& env,
                                     core::StackConfig stack_config,
                                     QuorumConfig initial_config,
                                     Duration retry_period)
    : env_(env), sink_(*this), stack_(env, std::move(stack_config), sink_),
      storage_(env.storage(), "qr"), retry_period_(retry_period),
      config_(std::move(initial_config)) {
  ABCAST_CHECK(retry_period_ > 0);
  config_.validate(env.group_size());
}

void QuorumReplicaNode::start(bool recovering) {
  if (recovering) {
    // The data store is per-replica durable state (logged before acking).
    for (const auto& key : storage_.keys_with_prefix("rec/")) {
      if (auto rec = storage_.get(key)) {
        BufReader r(*rec);
        Record record;
        const std::string k = r.str();
        record.value = r.str();
        record.version = decode_version(r);
        r.expect_done();
        store_.emplace(k, std::move(record));
      }
    }
  }
  // Configuration changes replay through the stack's delivery sequence.
  stack_.start(recovering);
  tick();
}

void QuorumReplicaNode::propose_config(const QuorumConfig& config) {
  config.validate(env_.group_size());
  BufWriter w;
  config.encode(w);
  stack_.ab().broadcast(std::move(w).take());
}

void QuorumReplicaNode::install_config(const core::AppMsg& msg) {
  // Config payloads arrive through atomic broadcast, so every replica sees
  // the same bytes — but nothing guarantees those bytes decode. A malformed
  // or invalid config must be rejected deterministically (every replica
  // skips the same message), not crash the delivery path.
  QuorumConfig next;
  try {
    BufReader r(msg.payload);
    next = QuorumConfig::decode(r);
    r.expect_done();
    next.validate(env_.group_size());
  } catch (const CodecError& e) {
    ABCAST_LOG(kDebug, "quorum@" << env_.self()
                                 << " rejected config: " << e.what());
    return;
  } catch (const InvariantViolation& e) {
    ABCAST_LOG(kDebug, "quorum@" << env_.self()
                                 << " rejected config: " << e.what());
    return;
  }
  config_ = std::move(next);
  epoch_ += 1;
  metrics_.configs_installed += 1;
  // Operations straddling a reconfiguration restart from scratch under the
  // new configuration — quorum intersection is an intra-epoch argument.
  for (auto& [op_id, op] : ops_) {
    metrics_.stale_epoch_restarts += 1;
    restart_op(op);
  }
}

void QuorumReplicaNode::read(std::string key, ReadCallback cb) {
  const std::uint64_t op_id = next_op_++;
  Op op;
  op.kind = Op::Kind::kRead;
  op.key = std::move(key);
  op.read_cb = std::move(cb);
  ops_.emplace(op_id, std::move(op));
  restart_op(ops_.at(op_id));
  start_op(op_id);
}

void QuorumReplicaNode::write(std::string key, std::string value,
                              WriteCallback cb) {
  const std::uint64_t op_id = next_op_++;
  Op op;
  op.kind = Op::Kind::kWriteReadPhase;
  op.key = std::move(key);
  op.value = std::move(value);
  op.write_cb = std::move(cb);
  ops_.emplace(op_id, std::move(op));
  restart_op(ops_.at(op_id));
  start_op(op_id);
}

void QuorumReplicaNode::restart_op(Op& op) {
  op.epoch = epoch_;
  op.votes_gathered = 0;
  op.replied.clear();
  op.best_value.reset();
  op.best_version = QuorumVersion{};
  if (op.kind == Op::Kind::kWriteInstallPhase) {
    // Redo the version-read under the new configuration too.
    op.kind = Op::Kind::kWriteReadPhase;
  }
}

// (Re)sends the current phase's request to replicas that have not replied.
void QuorumReplicaNode::start_op(std::uint64_t op_id) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return;
  Op& op = it->second;
  Wire wire;
  if (op.kind == Op::Kind::kWriteInstallPhase) {
    wire = make_wire(MsgType::kQrWrite,
                     WriteMsg{op_id, op.epoch, op.key, op.value,
                              op.install_version});
  } else {
    wire = make_wire(MsgType::kQrRead, ReadMsg{op_id, op.epoch, op.key});
  }
  for (ProcessId p = 0; p < env_.group_size(); ++p) {
    if (op.replied.count(p) == 0) env_.send(p, wire);
  }
}

void QuorumReplicaNode::tick() {
  for (const auto& [op_id, op] : ops_) start_op(op_id);
  env_.schedule_after(retry_period_, [this] { tick(); });
}

void QuorumReplicaNode::persist_record(const std::string& key,
                                       const Record& rec) {
  BufWriter w;
  w.str(key);
  w.str(rec.value);
  encode_version(w, rec.version);
  storage_.put("rec/" + key, w.data());
}

void QuorumReplicaNode::apply_local_write(const std::string& key,
                                          const std::string& value,
                                          QuorumVersion version) {
  Record& rec = store_[key];
  // A stale or duplicate install is acked without effect: the stored state
  // already carries a version ≥ the requested one, which is all a quorum
  // intersection needs.
  if (version <= rec.version) return;
  rec.value = value;
  rec.version = version;
  // Log before ack (the caller sends the ack after we return): a quorum
  // member must still hold what it acknowledged after crash-recovery.
  persist_record(key, rec);
}

void QuorumReplicaNode::finish_read(Op& op) {
  metrics_.reads_completed += 1;
  if (op.read_cb) op.read_cb(op.best_value, op.best_version);
}

void QuorumReplicaNode::finish_write_read_phase(std::uint64_t op_id,
                                                Op& op) {
  op.kind = Op::Kind::kWriteInstallPhase;
  op.install_version =
      QuorumVersion{op.best_version.counter + 1, env_.self()};
  op.votes_gathered = 0;
  op.replied.clear();
  start_op(op_id);
}

void QuorumReplicaNode::on_message(ProcessId from, const Wire& msg) {
  switch (msg.type) {
    case MsgType::kQrRead: {
      const auto m = decode_from_bytes<ReadMsg>(msg.payload);
      if (m.epoch != epoch_) {
        env_.send(from, make_wire(MsgType::kQrStaleEpoch,
                                  AckMsg{m.op, epoch_}));
        return;
      }
      ReadReplyMsg reply;
      reply.op = m.op;
      reply.epoch = epoch_;
      auto it = store_.find(m.key);
      if (it != store_.end()) {
        reply.has_value = true;
        reply.value = it->second.value;
        reply.version = it->second.version;
      }
      env_.send(from, make_wire(MsgType::kQrReadReply, reply));
      return;
    }
    case MsgType::kQrWrite: {
      const auto m = decode_from_bytes<WriteMsg>(msg.payload);
      if (m.epoch != epoch_) {
        env_.send(from, make_wire(MsgType::kQrStaleEpoch,
                                  AckMsg{m.op, epoch_}));
        return;
      }
      apply_local_write(m.key, m.value, m.version);
      env_.send(from, make_wire(MsgType::kQrWriteAck, AckMsg{m.op, epoch_}));
      return;
    }
    case MsgType::kQrReadReply: {
      const auto m = decode_from_bytes<ReadReplyMsg>(msg.payload);
      auto it = ops_.find(m.op);
      if (it == ops_.end()) return;
      Op& op = it->second;
      if (op.kind == Op::Kind::kWriteInstallPhase || m.epoch != op.epoch) {
        return;
      }
      if (!op.replied.insert(from).second) return;
      op.votes_gathered += config_.votes[from];
      if (m.has_value && (!op.best_value || op.best_version < m.version)) {
        op.best_value = m.value;
        op.best_version = m.version;
      }
      if (op.votes_gathered >= config_.read_quorum) {
        if (op.kind == Op::Kind::kRead) {
          finish_read(op);
          ops_.erase(it);
        } else {
          finish_write_read_phase(m.op, op);
        }
      }
      return;
    }
    case MsgType::kQrWriteAck: {
      const auto m = decode_from_bytes<AckMsg>(msg.payload);
      auto it = ops_.find(m.op);
      if (it == ops_.end()) return;
      Op& op = it->second;
      if (op.kind != Op::Kind::kWriteInstallPhase || m.epoch != op.epoch) {
        return;
      }
      if (!op.replied.insert(from).second) return;
      op.votes_gathered += config_.votes[from];
      if (op.votes_gathered >= config_.write_quorum) {
        metrics_.writes_completed += 1;
        if (op.write_cb) op.write_cb();
        ops_.erase(it);
      }
      return;
    }
    case MsgType::kQrStaleEpoch: {
      const auto m = decode_from_bytes<AckMsg>(msg.payload);
      auto it = ops_.find(m.op);
      if (it == ops_.end()) return;
      // A replica is in a newer configuration than this attempt. Our own
      // epoch catches up via the AB delivery (install_config restarts all
      // ops); if it already has, restart immediately.
      if (epoch_ > it->second.epoch) {
        metrics_.stale_epoch_restarts += 1;
        restart_op(it->second);
        start_op(m.op);
      }
      return;
    }
    default:
      // Everything else belongs to the embedded configuration stack.
      stack_.on_message(from, msg);
      return;
  }
}

QuorumVersion QuorumReplicaNode::local_version(const std::string& key) const {
  auto it = store_.find(key);
  return it == store_.end() ? QuorumVersion{} : it->second.version;
}

}  // namespace abcast::apps
