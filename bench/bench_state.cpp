// E5b — Chunked, resumable state transfer (paper §5.3, hardened).
//
// The one-shot state message of §5.3 grows with the sender's history, so a
// bounded transport (the rt/UDP host drops frames over 64 KiB) livelocks a
// rejoining process once the history outgrows one datagram. The chunked
// catch-up session streams the same state in self-contained chunks sized
// to the transport's datagram limit (Env::max_datagram_bytes(), set here
// on the simulated network) and resumes from the receiver's acked
// position after loss or a crash on either side. Measured here:
//
//   * catch-up stays feasible as the missed history grows past 64 KiB,
//     with every state datagram at or below the network's limit;
//   * a receiver crash mid-transfer costs a resume, not a restart.
//
// Each row is a mean over kSeeds seeds (named in the table), because one
// seed's catch-up can swing with a single reset session; the datagram
// bound and convergence are checked on every seed.

#include "bench_util.hpp"
#include "obs/trace.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct ChunkedCatchUp {
  double catch_up_ms = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t chunk_bytes = 0;
  std::uint64_t max_chunk_bytes = 0;  // largest state datagram observed
  std::uint64_t resumes = 0;          // go-back rewinds across all senders
  bool converged = false;
};

// The harness application's checkpoint is O(1) bytes (a position and a
// prefix hash), so application checkpointing would fold any history into a
// trivially small snapshot. Leaving it off keeps the missed history in the
// AgreedLog's explicit suffix — the shape that made the seed's one-shot
// state message outgrow a datagram. (The multi-slice snapshot phase is
// exercised by the UDP regression test, whose KV checkpoint is >64 KiB.)
ClusterConfig chunked_config(std::size_t max_datagram_bytes,
                             std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.sim.n = 3;
  cfg.sim.seed = seed;
  cfg.sim.net.max_datagram_bytes = max_datagram_bytes;
  cfg.sim.trace_capacity = 1 << 16;  // to audit per-datagram chunk sizes
  cfg.stack.ab.checkpointing = true;
  cfg.stack.ab.truncate_logs = true;
  cfg.stack.ab.state_transfer = true;
  cfg.stack.ab.delta = 2;
  cfg.stack.ab.checkpoint_period = millis(150);
  return cfg;
}

std::uint64_t max_chunk_wire_bytes(Cluster& c) {
  std::uint64_t max_bytes = 0;
  for (const auto& e : c.collect_trace()) {
    if (e.kind == obs::EventKind::kStateTransfer &&
        (e.detail == "send_chunk" || e.detail == "send_snap")) {
      max_bytes = std::max(max_bytes, e.arg);
    }
  }
  return max_bytes;
}

ChunkedCatchUp tally(Cluster& c, TimePoint start, bool converged) {
  ChunkedCatchUp out;
  out.converged = converged;
  out.catch_up_ms = static_cast<double>(c.sim().now() - start) / 1e6;
  for (ProcessId p = 0; p < c.sim().n(); ++p) {
    const auto& m = c.stack(p)->ab().metrics();
    out.chunks_sent += m.state_chunks_sent;
    out.chunk_bytes += m.state_chunk_bytes_sent;
    out.resumes += m.state_resumes;
  }
  out.max_chunk_bytes = max_chunk_wire_bytes(c);
  return out;
}

/// One process misses `history_kb` KiB of 1-KiB broadcasts (well past the
/// checkpoint + truncation horizon), then rejoins through the chunked
/// session. `crash_mid_transfer` additionally crashes the receiver once
/// mid-stream and lets the session resume from its re-advertised total.
ChunkedCatchUp run_chunked(int history_kb, std::size_t max_datagram_bytes,
                           std::uint64_t seed,
                           bool crash_mid_transfer = false) {
  Cluster c(chunked_config(max_datagram_bytes, seed));
  c.start_all();
  auto warm = c.broadcast_many(0, 2);
  c.await_delivery(warm);

  c.sim().crash(2);
  std::vector<MsgId> ids;
  for (int i = 0; i < history_kb; ++i) {
    ids.push_back(c.broadcast(0, Bytes(1024, static_cast<std::uint8_t>(i))));
    c.sim().run_for(millis(40));
  }
  c.await_delivery(ids, {0, 1}, seconds(600));
  c.sim().run_for(millis(400));  // checkpoints fold + truncate the prefix
  const auto target = c.stack(0)->ab().round();

  const TimePoint start = c.sim().now();
  c.sim().recover(2);
  if (crash_mid_transfer) {
    c.sim().run_for(millis(40));  // part of the stream lands, then the
    c.sim().crash(2);             // receiver dies and rejoins
    c.sim().run_for(millis(100));
    c.sim().recover(2);
  }
  const bool converged = c.sim().run_until_pred(
      [&] { return c.stack(2)->ab().round() >= target; },
      c.sim().now() + seconds(600));
  return tally(c, start, converged);
}

constexpr std::uint64_t kSeeds = 10;

/// One E5b cell over seeds 700 + history_kb onward: means, except
/// max_chunk_bytes (the max over seeds) and ok (every seed converged with
/// every state datagram within the network's limit).
struct CellMean {
  std::string seeds;
  double catch_up_ms = 0;
  double chunks_sent = 0;
  double chunk_bytes = 0;
  std::uint64_t max_chunk_bytes = 0;
  double resumes = 0;
  bool ok = true;
};

CellMean run_cell(int history_kb, std::size_t max_datagram_bytes,
                  bool crash_mid_transfer = false) {
  const std::uint64_t first = 700 + static_cast<std::uint64_t>(history_kb);
  CellMean m;
  m.seeds = std::to_string(first) + "-" + std::to_string(first + kSeeds - 1);
  const double w = 1.0 / static_cast<double>(kSeeds);
  for (std::uint64_t seed = first; seed < first + kSeeds; ++seed) {
    const auto r =
        run_chunked(history_kb, max_datagram_bytes, seed, crash_mid_transfer);
    m.catch_up_ms += w * r.catch_up_ms;
    m.chunks_sent += w * static_cast<double>(r.chunks_sent);
    m.chunk_bytes += w * static_cast<double>(r.chunk_bytes);
    m.max_chunk_bytes = std::max(m.max_chunk_bytes, r.max_chunk_bytes);
    m.resumes += w * static_cast<double>(r.resumes);
    if (!r.converged || r.max_chunk_bytes > max_datagram_bytes) {
      m.ok = false;
      std::fprintf(stderr, "E5b: seed %llu, %d KiB at %zu B: converged=%d, "
                   "max chunk %llu B\n", static_cast<unsigned long long>(seed),
                   history_kb, max_datagram_bytes, r.converged ? 1 : 0,
                   static_cast<unsigned long long>(r.max_chunk_bytes));
    }
  }
  return m;
}

void emit_cell(const char* scenario, int history_kb,
               std::size_t max_datagram_bytes, const CellMean& m) {
  Json row;
  row.field("experiment", "E5b")
      .field("scenario", scenario)
      .field("history_kib", history_kb)
      .field("max_datagram_bytes", max_datagram_bytes)
      .field("seeds", m.seeds)
      .field("catch_up_ms", m.catch_up_ms)
      .field("chunks_sent", m.chunks_sent, 1)
      .field("chunk_bytes", m.chunk_bytes, 0)
      .field("max_chunk_bytes", m.max_chunk_bytes)
      .field("resumes", m.resumes, 1)
      .field("converged", m.ok);
  emit_json_row(row);
}

/// Prints both tables; returns false when some seed broke the invariant.
bool run_tables() {
  banner("E5b: chunked catch-up past the 64 KiB datagram bound",
         "Claim: a catch-up session streams state in chunks sized to the "
         "network's datagram limit, so rejoining stays feasible on a "
         "bounded transport no matter how large the missed history is.");
  bool ok = true;
  Table t({"history KiB", "datagram limit B", "seeds", "catch-up ms",
           "chunks", "state KB", "max chunk B", "resumes"});
  const std::vector<int> histories =
      bench_quick() ? std::vector<int>{24} : std::vector<int>{24, 96, 192};
  for (const int kb : histories) {
    for (const std::size_t limit :
         {std::size_t{8 * 1024}, kUdpMaxDatagramBytes}) {
      const auto m = run_cell(kb, limit);
      ok = ok && m.ok;
      t.row({std::to_string(kb), fmt_u64(limit), m.seeds,
             Table::num(m.catch_up_ms), Table::num(m.chunks_sent, 1),
             Table::num(m.chunk_bytes / 1e3, 1), fmt_u64(m.max_chunk_bytes),
             Table::num(m.resumes, 1)});
      emit_cell("rejoin", kb, limit, m);
    }
  }
  t.print(std::cout);

  banner("E5b: receiver crash mid-transfer",
         "Claim: a crash mid-session costs a resume from the receiver's "
         "re-advertised position, not a restart of the whole transfer.");
  Table t2({"history KiB", "seeds", "catch-up ms", "chunks", "state KB",
            "resumes"});
  const int kb = bench_quick() ? 24 : 96;
  const std::size_t kSmallLimit = 8 * 1024;  // many chunks -> a real mid-point
  const auto m = run_cell(kb, kSmallLimit, /*crash_mid_transfer=*/true);
  ok = ok && m.ok;
  t2.row({std::to_string(kb), m.seeds, Table::num(m.catch_up_ms),
          Table::num(m.chunks_sent, 1), Table::num(m.chunk_bytes / 1e3, 1),
          Table::num(m.resumes, 1)});
  t2.print(std::cout);
  emit_cell("crash_mid_transfer", kb, kSmallLimit, m);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  if (!run_tables()) return 1;
  return 0;
}
