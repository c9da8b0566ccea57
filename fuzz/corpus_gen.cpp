#include "fuzz/corpus_gen.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/deferred_update.hpp"
#include "apps/kv_store.hpp"
#include "apps/quorum.hpp"
#include "common/codec.hpp"
#include "consensus/consensus_wire.hpp"
#include "core/ab_wire.hpp"
#include "core/agreed_log.hpp"
#include "core/app_msg.hpp"
#include "core/gossip_wire.hpp"
#include "core/vector_clock.hpp"
#include "group/group_wire.hpp"
#include "multicast/multicast_wire.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "storage/sealed_record.hpp"

namespace abcast::fuzz {

namespace {

namespace fs = std::filesystem;

class CorpusWriter {
 public:
  explicit CorpusWriter(const std::string& root) : root_(root) {}

  /// Binary seed: the family's selector byte followed by the payload.
  void seed(const std::string& family, std::uint8_t selector,
            const Bytes& payload) {
    Bytes data;
    data.push_back(selector);
    data.insert(data.end(), payload.begin(), payload.end());
    raw(family, data);
  }

  /// Selector-free seed (text grammars: scenario lines, JSONL).
  void text(const std::string& family, const std::string& s) {
    raw(family, Bytes(s.begin(), s.end()));
  }

  int written() const { return written_; }

 private:
  void raw(const std::string& family, const Bytes& data) {
    const fs::path dir = fs::path(root_) / family;
    fs::create_directories(dir);
    char name[32];
    std::snprintf(name, sizeof(name), "seed-%03d", written_);
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    ++written_;
  }

  std::string root_;
  int written_ = 0;
};

core::AppMsg make_app_msg(std::uint32_t sender, std::uint64_t seq,
                          Bytes payload) {
  core::AppMsg m;
  m.id = MsgId{sender, seq};
  m.payload = std::move(payload);
  return m;
}

void consensus_wire_seeds(CorpusWriter& w) {
  using namespace consensus_wire;
  w.seed("consensus_wire", 0,
         encode_to_bytes(DecidedMsg{3, Bytes{1, 2, 3}}));
  w.seed("consensus_wire", 1, encode_to_bytes(PrepareMsg{1, 42}));
  w.seed("consensus_wire", 2,
         encode_to_bytes(PromiseMsg{1, 42, 17, Bytes{9}}));
  w.seed("consensus_wire", 3, encode_to_bytes(AcceptMsg{6, 13, Bytes{1, 2}}));
  w.seed("consensus_wire", 4, encode_to_bytes(AcceptedMsg{6, 13}));
  w.seed("consensus_wire", 5, encode_to_bytes(NackMsg{4, 99}));
  w.seed("consensus_wire", 6,
         encode_to_bytes(EstimateMsg{2, 3, 1, Bytes{7, 7}}));
  w.seed("consensus_wire", 7,
         encode_to_bytes(NewEstimateMsg{2, 3, Bytes{5}}));
  w.seed("consensus_wire", 8, encode_to_bytes(RoundMsg{11, 4}));
}

void ab_wire_seeds(CorpusWriter& w) {
  core::GossipMsg g;
  g.k = 7;
  g.total = 3;
  g.unordered = {make_app_msg(0, 1, {5}), make_app_msg(1, 2, {6, 7})};
  w.seed("ab_wire", 0, encode_to_bytes(g));

  core::StateChunkMsg snap;
  snap.k = 4;
  snap.snapshot = true;
  snap.offset = 1024;
  snap.snap_total = 40;
  snap.snap_size = 4096;
  snap.data = {1, 2, 3, 4};
  w.seed("ab_wire", 1, encode_to_bytes(snap));

  core::StateChunkMsg chunk_tail;
  chunk_tail.k = 9;
  chunk_tail.offset = 5;
  chunk_tail.final_chunk = true;
  chunk_tail.msgs = {make_app_msg(1, 3, {8}), make_app_msg(0, 2, {})};
  w.seed("ab_wire", 1, encode_to_bytes(chunk_tail));

  core::DigestMsg d;
  d.k = 12;
  d.total = 6;
  d.want_reply = true;
  d.ack_snap_total = 40;
  d.ack_snap_bytes = 2048;
  d.cover = {3, 0, 9};
  d.msgs = {make_app_msg(2, 10, {1, 1})};
  w.seed("ab_wire", 2, encode_to_bytes(d));

  w.seed("ab_wire", 3, encode_to_bytes(make_app_msg(2, 17, {1, 2, 3})));
  w.seed("ab_wire", 4,
         core::encode_batch({make_app_msg(0, 1, {1}),
                             make_app_msg(1, 1, {2, 2})}));
}

void group_wire_seeds(CorpusWriter& w) {
  group::GroupEnvelopeMsg env;
  env.group = 3;
  env.inner = Wire{MsgType::kAbGossip, Bytes{1, 2, 3, 4}};
  w.seed("group_wire", 0, encode_to_bytes(env));

  w.seed("group_wire", 1,
         encode_to_bytes(group::ShardCommandMsg::plain({9, 8, 7})));
  w.seed("group_wire", 1,
         encode_to_bytes(group::ShardCommandMsg::pair(0xdeadbeefull, 1,
                                                      {1, 1}, 4, {2, 2, 2})));

  multicast::FillMsg fill;
  fill.id = MsgId{4, 0x100000002ull};
  fill.from_group = 1;
  fill.proposed_ts = 17;
  fill.dests = {0, 1, 3};
  fill.payload = {5, 6};
  w.seed("group_wire", 2, encode_to_bytes(fill));
}

void vector_clock_seeds(CorpusWriter& w) {
  core::VectorClock vc(3);
  vc.observe(MsgId{0, 1});
  vc.observe(MsgId{2, 5});
  w.seed("vector_clock", 0, encode_to_bytes(vc));

  core::AppCheckpoint c;
  c.state = {9, 8, 7};
  c.vc = core::VectorClock(2);
  c.vc.observe(MsgId{1, 4});
  c.count = 11;
  w.seed("vector_clock", 1, encode_to_bytes(c));

  core::AgreedLog log(2);
  log.append({make_app_msg(0, 1, {1}), make_app_msg(1, 1, {2})});
  w.seed("vector_clock", 2, encode_to_bytes(log));

  core::AgreedLog compacted(2);
  compacted.append({make_app_msg(0, 1, {1})});
  compacted.compact({42});
  compacted.append({make_app_msg(1, 1, {3, 4})});
  w.seed("vector_clock", 2, encode_to_bytes(compacted));
}

void app_checkpoint_seeds(CorpusWriter& w) {
  w.seed("app_checkpoint", 0, apps::KvCommand::put("alpha", "1"));
  w.seed("app_checkpoint", 0, apps::KvCommand::del("alpha"));
  w.seed("app_checkpoint", 0, apps::KvCommand::add("ctr", -3));
  w.seed("app_checkpoint", 1, apps::KvCommand::cas("alpha", "1", "2"));

  apps::KvStore kv;
  kv.apply(apps::KvCommand::put("k", "v"));
  kv.apply(apps::KvCommand::add("n", 7));
  w.seed("app_checkpoint", 2, kv.snapshot());

  apps::DeferredUpdateDb db;
  auto txn = db.begin();
  txn.put("x", "1");
  const Bytes cert = txn.commit_request();
  w.seed("app_checkpoint", 3, cert);
  w.seed("app_checkpoint", 4, cert);
  db.apply(cert);
  w.seed("app_checkpoint", 5, db.snapshot());

  w.seed("app_checkpoint", 6,
         encode_to_bytes(apps::QuorumConfig::uniform(3)));
}

void storage_record_seeds(CorpusWriter& w) {
  w.seed("storage_record", 0, Bytes{1, 2, 3, 4, 5});

  {  // (k, Agreed) checkpoint record
    core::AgreedLog log(2);
    log.append({make_app_msg(0, 1, {1})});
    log.compact({7});
    BufWriter body;
    body.u64(3);
    log.encode(body);
    w.seed("storage_record", 1, seal_record(body.data()));
  }
  w.seed("storage_record", 2,
         seal_record(core::encode_batch({make_app_msg(0, 1, {1}),
                                         make_app_msg(1, 2, {2})})));
  {  // Paxos acceptor record
    BufWriter body;
    body.u64(5);   // promised
    body.u64(4);   // accepted_ballot
    body.bytes(Bytes{1, 2, 3});
    w.seed("storage_record", 3, seal_record(body.data()));
  }
  {  // coordinator state record
    BufWriter body;
    body.u64(2);        // round
    body.boolean(true); // has_est
    body.u64(1);        // ts
    body.bytes(Bytes{9});
    w.seed("storage_record", 4, seal_record(body.data()));
  }
  {  // durable counter slot
    BufWriter body;
    body.u64(41);
    w.seed("storage_record", 5, seal_record(body.data()));
  }
}

void scenario_seeds(CorpusWriter& w) {
  // The adversary's own output covers the generated grammar...
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    w.text("scenario", scenario::generate_scenario(seed).serialize());
  }
  // ...plus hand-rolled lines for the corners it rarely emits.
  w.text("scenario",
         "scn1 seed=9 n=5 horizon=900ms engine=coord variant=alt "
         "gossip=digest groups=2 part(at=100ms,for=250ms,side=0|2,mode=in) "
         "flap(at=50ms,a=1,b=3,period=40ms,count=3) "
         "gray(at=100ms,for=200ms,node=4,rx=8.5) skew(node=0,scale=1.25) "
         "disk(at=10ms,for=300ms,node=2,min=100us,max=2ms,stallp=0.02,"
         "stall=20ms) burst(at=400ms,victims=1|2,down=100ms) "
         "storm(at=200ms,node=3,ops=4,phase=torn,times=2,gap=80ms) "
         "load(at=0s,for=700ms,gap=5ms,clients=8,bytes=32,keys=64,hot=0.9)");
  w.text("scenario", "scn1 seed=1 n=3");
}

void tracecheck_seeds(CorpusWriter& w) {
  using obs::EventKind;
  using obs::TraceEvent;
  auto line = [](TraceEvent e) { return obs::event_to_json(e); };
  TraceEvent deliver;
  deliver.kind = EventKind::kDeliver;
  deliver.node = 1;
  deliver.seq = 4;
  deliver.t = 120000;
  deliver.k = 2;
  deliver.msg = MsgId{0, 9};
  deliver.arg = 3;
  TraceEvent logw;
  logw.kind = EventKind::kLogWrite;
  logw.node = 0;
  logw.seq = 1;
  logw.t = -5;  // rt traces can carry negative clock deltas
  logw.arg = 64;
  logw.detail = "dec/3 with \"quotes\" and\nnewline";
  TraceEvent grouped;
  grouped.kind = EventKind::kCrossShard;
  grouped.node = 2;
  grouped.seq = 7;
  grouped.group = 1;
  grouped.k = 3;
  grouped.arg = 0xdead;
  grouped.detail = "hold";
  w.text("tracecheck",
         line(deliver) + "\n" + line(logw) + "\n" + line(grouped) + "\n");
  w.text("tracecheck", line(deliver));
}

}  // namespace

int write_seed_corpora(const std::string& root) {
  CorpusWriter w(root);
  consensus_wire_seeds(w);
  ab_wire_seeds(w);
  group_wire_seeds(w);
  vector_clock_seeds(w);
  app_checkpoint_seeds(w);
  storage_record_seeds(w);
  scenario_seeds(w);
  tracecheck_seeds(w);
  return w.written();
}

}  // namespace abcast::fuzz
