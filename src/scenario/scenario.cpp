#include "scenario/scenario.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "common/rng.hpp"

namespace abcast::scenario {

namespace {

// Adversarial-input budget (scenario lines arrive from sweep configs and
// the fuzzers, not just generate_scenario): a line the harness would accept
// must stay small enough that replaying it is always cheap.
constexpr std::size_t kMaxLineBytes = 64 * 1024;
constexpr std::size_t kMaxClauses = 128;
constexpr std::size_t kMaxPids = 256;
// Loose sanity cap for rate/scale factors; real scenarios use single-digit
// factors, and unbounded values turn the simulated clock degenerate.
constexpr double kMaxFactor = 1e6;

// ---- serialization helpers ----------------------------------------------

/// Smallest exact unit: "250ms", "80us", "1s", "0s". Always integral.
std::string fmt_dur(Duration d) {
  if (d == 0) return "0s";
  if (d % seconds(1) == 0) return std::to_string(d / seconds(1)) + "s";
  if (d % millis(1) == 0) return std::to_string(d / millis(1)) + "ms";
  if (d % micros(1) == 0) return std::to_string(d / micros(1)) + "us";
  return std::to_string(d) + "ns";
}

/// %.15g round-trips every value the generator emits (short decimals) and
/// every double a hand-written scenario plausibly contains.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

std::string fmt_pids(const std::vector<ProcessId>& pids) {
  std::string out;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (i != 0) out += '|';
    out += std::to_string(pids[i]);
  }
  return out;
}

const char* fmt_mode(sim::PartitionMode m) {
  switch (m) {
    case sim::PartitionMode::kSymmetric: return "sym";
    case sim::PartitionMode::kInbound: return "in";
    case sim::PartitionMode::kOutbound: return "out";
  }
  return "sym";
}

const char* fmt_phase(CrashPhase p) {
  switch (p) {
    case CrashPhase::kBeforeOp: return "before";
    case CrashPhase::kTornWrite: return "torn";
    case CrashPhase::kAfterOp: return "after";
  }
  return "before";
}

// ---- parsing helpers -----------------------------------------------------

struct Parser {
  std::string error;

  bool fail(const std::string& why) {
    if (error.empty()) error = why;
    return false;
  }

  bool u64(const std::string& s, std::uint64_t& out) {
    if (s.empty()) return fail("empty integer");
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size()) {
      return fail("bad integer '" + s + "'");
    }
    out = v;
    return true;
  }

  bool u32(const std::string& s, std::uint32_t& out) {
    std::uint64_t v = 0;
    if (!u64(s, v)) return false;
    if (v > 0xffffffffull) return fail("integer '" + s + "' out of range");
    out = static_cast<std::uint32_t>(v);
    return true;
  }

  bool pid(const std::string& s, ProcessId& out) { return u32(s, out); }

  bool real(const std::string& s, double& out) {
    if (s.empty()) return fail("empty number");
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size()) {
      return fail("bad number '" + s + "'");
    }
    // strtod happily accepts "nan"/"inf"; no clause has a meaningful
    // non-finite parameter, and nan breaks the serialize/parse fixpoint.
    if (!std::isfinite(v)) return fail("non-finite number '" + s + "'");
    out = v;
    return true;
  }

  bool dur(const std::string& s, Duration& out) {
    std::size_t unit = s.size();
    while (unit > 0 && (s[unit - 1] < '0' || s[unit - 1] > '9')) unit -= 1;
    const std::string digits = s.substr(0, unit);
    const std::string suffix = s.substr(unit);
    std::uint64_t v = 0;
    if (!u64(digits, v)) return fail("bad duration '" + s + "'");
    Duration scale = 0;
    if (suffix == "ns") scale = 1;
    else if (suffix == "us") scale = micros(1);
    else if (suffix == "ms") scale = millis(1);
    else if (suffix == "s") scale = seconds(1);
    else return fail("bad duration unit '" + s + "'");
    if (v > static_cast<std::uint64_t>(INT64_MAX / scale)) {
      return fail("duration '" + s + "' overflows");
    }
    out = static_cast<Duration>(v) * scale;
    return true;
  }

  bool pids(const std::string& s, std::vector<ProcessId>& out) {
    out.clear();
    std::size_t pos = 0;
    while (pos <= s.size()) {
      const std::size_t bar = s.find('|', pos);
      const std::string tok =
          s.substr(pos, bar == std::string::npos ? std::string::npos
                                                 : bar - pos);
      ProcessId p = 0;
      if (!pid(tok, p)) return false;
      if (out.size() >= kMaxPids) return fail("process list too long");
      out.push_back(p);
      if (bar == std::string::npos) break;
      pos = bar + 1;
    }
    if (out.empty()) return fail("empty process list");
    return true;
  }

  bool mode(const std::string& s, sim::PartitionMode& out) {
    if (s == "sym") out = sim::PartitionMode::kSymmetric;
    else if (s == "in") out = sim::PartitionMode::kInbound;
    else if (s == "out") out = sim::PartitionMode::kOutbound;
    else return fail("bad partition mode '" + s + "'");
    return true;
  }

  bool phase(const std::string& s, CrashPhase& out) {
    if (s == "before") out = CrashPhase::kBeforeOp;
    else if (s == "torn") out = CrashPhase::kTornWrite;
    else if (s == "after") out = CrashPhase::kAfterOp;
    else return fail("bad crash phase '" + s + "'");
    return true;
  }
};

/// Splits "k1=v1,k2=v2" into pairs; no nesting, values contain no commas.
bool split_kvs(const std::string& body,
               std::vector<std::pair<std::string, std::string>>& out,
               Parser& p) {
  out.clear();
  if (body.empty()) return true;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t comma = body.find(',', pos);
    const std::string item =
        body.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return p.fail("expected key=value, got '" + item + "'");
    }
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

/// Looks up a required key; fails with the clause kind in the message.
bool need(const std::vector<std::pair<std::string, std::string>>& kvs,
          const std::string& kind, const std::string& key, std::string& out,
          Parser& p) {
  for (const auto& [k, v] : kvs) {
    if (k == key) {
      out = v;
      return true;
    }
  }
  return p.fail(kind + ": missing " + key);
}

/// Looks up an optional key; absence is not an error.
bool opt(const std::vector<std::pair<std::string, std::string>>& kvs,
         const std::string& key, std::string& out) {
  for (const auto& [k, v] : kvs) {
    if (k == key) {
      out = v;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* clause_kind(const Clause& c) {
  return std::visit(
      [](const auto& cl) -> const char* {
        using T = std::decay_t<decltype(cl)>;
        if constexpr (std::is_same_v<T, PartitionClause>) return "part";
        else if constexpr (std::is_same_v<T, FlapClause>) return "flap";
        else if constexpr (std::is_same_v<T, GrayClause>) return "gray";
        else if constexpr (std::is_same_v<T, SkewClause>) return "skew";
        else if constexpr (std::is_same_v<T, DiskClause>) return "disk";
        else if constexpr (std::is_same_v<T, BurstClause>) return "burst";
        else if constexpr (std::is_same_v<T, StormClause>) return "storm";
        else return "load";
      },
      c);
}

std::string Scenario::serialize() const {
  std::ostringstream out;
  out << "scn1 seed=" << seed << " n=" << n
      << " horizon=" << fmt_dur(horizon)
      << " engine=" << (engine == ConsensusKind::kPaxos ? "paxos"
                                                              : "coord")
      << " variant=" << (alternative ? "alt" : "basic")
      << " gossip=" << (digest_gossip ? "digest" : "full");
  if (groups != 1) out << " groups=" << groups;
  for (const auto& c : clauses) {
    out << ' ' << clause_kind(c) << '(';
    std::visit(
        [&out](const auto& cl) {
          using T = std::decay_t<decltype(cl)>;
          if constexpr (std::is_same_v<T, PartitionClause>) {
            out << "at=" << fmt_dur(cl.at) << ",for=" << fmt_dur(cl.hold)
                << ",side=" << fmt_pids(cl.side)
                << ",mode=" << fmt_mode(cl.mode);
          } else if constexpr (std::is_same_v<T, FlapClause>) {
            out << "at=" << fmt_dur(cl.at) << ",a=" << cl.a << ",b=" << cl.b
                << ",period=" << fmt_dur(cl.period)
                << ",count=" << cl.count;
          } else if constexpr (std::is_same_v<T, GrayClause>) {
            out << "at=" << fmt_dur(cl.at) << ",for=" << fmt_dur(cl.hold)
                << ",node=" << cl.node
                << ",rx=" << fmt_double(cl.rx_factor);
          } else if constexpr (std::is_same_v<T, SkewClause>) {
            out << "node=" << cl.node << ",scale=" << fmt_double(cl.scale);
          } else if constexpr (std::is_same_v<T, DiskClause>) {
            out << "at=" << fmt_dur(cl.at) << ",for=" << fmt_dur(cl.hold)
                << ",node=" << cl.node << ",min=" << fmt_dur(cl.delay_min)
                << ",max=" << fmt_dur(cl.delay_max)
                << ",stallp=" << fmt_double(cl.stall_prob)
                << ",stall=" << fmt_dur(cl.stall);
          } else if constexpr (std::is_same_v<T, BurstClause>) {
            out << "at=" << fmt_dur(cl.at)
                << ",victims=" << fmt_pids(cl.victims)
                << ",down=" << fmt_dur(cl.down);
          } else if constexpr (std::is_same_v<T, StormClause>) {
            out << "at=" << fmt_dur(cl.at) << ",node=" << cl.node
                << ",ops=" << cl.ops_ahead
                << ",phase=" << fmt_phase(cl.phase)
                << ",times=" << cl.times << ",gap=" << fmt_dur(cl.gap);
          } else {  // LoadClause
            out << "at=" << fmt_dur(cl.at) << ",for=" << fmt_dur(cl.hold)
                << ",gap=" << fmt_dur(cl.mean_gap)
                << ",clients=" << cl.clients << ",bytes=" << cl.bytes;
            // Keyed-mode fields only when active — older lines stay valid
            // and generate_scenario's serializations are byte-identical.
            if (cl.keys != 0) {
              out << ",keys=" << cl.keys << ",hot=" << fmt_double(cl.hot);
            }
          }
        },
        c);
    out << ')';
  }
  return out.str();
}

std::optional<Scenario> Scenario::parse(const std::string& line,
                                        std::string* error) {
  Parser p;
  Scenario s;
  s.clauses.clear();

  auto bail = [&]() -> std::optional<Scenario> {
    if (error != nullptr) *error = p.error.empty() ? "parse error" : p.error;
    return std::nullopt;
  };

  if (line.size() > kMaxLineBytes) {
    p.fail("line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
    return bail();
  }

  std::istringstream in(line);
  std::string tok;
  if (!(in >> tok) || tok != "scn1") {
    p.fail("expected 'scn1' header, got '" + tok + "'");
    return bail();
  }

  std::vector<std::pair<std::string, std::string>> kvs;
  while (in >> tok) {
    const std::size_t paren = tok.find('(');
    if (paren == std::string::npos) {
      // header field
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos || eq == 0) {
        p.fail("expected field or clause, got '" + tok + "'");
        return bail();
      }
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      bool ok = true;
      if (key == "seed") ok = p.u64(val, s.seed);
      else if (key == "n") ok = p.u32(val, s.n);
      else if (key == "horizon") ok = p.dur(val, s.horizon);
      else if (key == "engine") {
        if (val == "paxos") s.engine = ConsensusKind::kPaxos;
        else if (val == "coord") s.engine = ConsensusKind::kCoord;
        else ok = p.fail("bad engine '" + val + "'");
      } else if (key == "variant") {
        if (val == "alt") s.alternative = true;
        else if (val == "basic") s.alternative = false;
        else ok = p.fail("bad variant '" + val + "'");
      } else if (key == "gossip") {
        if (val == "digest") s.digest_gossip = true;
        else if (val == "full") s.digest_gossip = false;
        else ok = p.fail("bad gossip mode '" + val + "'");
      } else if (key == "groups") {
        ok = p.u32(val, s.groups);
      } else {
        ok = p.fail("unknown field '" + key + "'");
      }
      if (!ok) return bail();
      continue;
    }

    // clause: kind(body)
    if (tok.back() != ')') {
      p.fail("unterminated clause '" + tok + "'");
      return bail();
    }
    if (s.clauses.size() >= kMaxClauses) {
      p.fail("more than " + std::to_string(kMaxClauses) + " clauses");
      return bail();
    }
    const std::string kind = tok.substr(0, paren);
    const std::string body =
        tok.substr(paren + 1, tok.size() - paren - 2);
    if (!split_kvs(body, kvs, p)) return bail();
    std::string v1, v2, v3, v4, v5, v6, v7;

    if (kind == "part") {
      PartitionClause cl;
      if (!need(kvs, kind, "at", v1, p) || !p.dur(v1, cl.at) ||
          !need(kvs, kind, "for", v2, p) || !p.dur(v2, cl.hold) ||
          !need(kvs, kind, "side", v3, p) || !p.pids(v3, cl.side) ||
          !need(kvs, kind, "mode", v4, p) || !p.mode(v4, cl.mode)) {
        return bail();
      }
      s.clauses.emplace_back(cl);
    } else if (kind == "flap") {
      FlapClause cl;
      if (!need(kvs, kind, "at", v1, p) || !p.dur(v1, cl.at) ||
          !need(kvs, kind, "a", v2, p) || !p.pid(v2, cl.a) ||
          !need(kvs, kind, "b", v3, p) || !p.pid(v3, cl.b) ||
          !need(kvs, kind, "period", v4, p) || !p.dur(v4, cl.period) ||
          !need(kvs, kind, "count", v5, p) || !p.u32(v5, cl.count)) {
        return bail();
      }
      s.clauses.emplace_back(cl);
    } else if (kind == "gray") {
      GrayClause cl;
      if (!need(kvs, kind, "at", v1, p) || !p.dur(v1, cl.at) ||
          !need(kvs, kind, "for", v2, p) || !p.dur(v2, cl.hold) ||
          !need(kvs, kind, "node", v3, p) || !p.pid(v3, cl.node) ||
          !need(kvs, kind, "rx", v4, p) || !p.real(v4, cl.rx_factor)) {
        return bail();
      }
      s.clauses.emplace_back(cl);
    } else if (kind == "skew") {
      SkewClause cl;
      if (!need(kvs, kind, "node", v1, p) || !p.pid(v1, cl.node) ||
          !need(kvs, kind, "scale", v2, p) || !p.real(v2, cl.scale)) {
        return bail();
      }
      s.clauses.emplace_back(cl);
    } else if (kind == "disk") {
      DiskClause cl;
      if (!need(kvs, kind, "at", v1, p) || !p.dur(v1, cl.at) ||
          !need(kvs, kind, "for", v2, p) || !p.dur(v2, cl.hold) ||
          !need(kvs, kind, "node", v3, p) || !p.pid(v3, cl.node) ||
          !need(kvs, kind, "min", v4, p) || !p.dur(v4, cl.delay_min) ||
          !need(kvs, kind, "max", v5, p) || !p.dur(v5, cl.delay_max) ||
          !need(kvs, kind, "stallp", v6, p) || !p.real(v6, cl.stall_prob) ||
          !need(kvs, kind, "stall", v7, p) || !p.dur(v7, cl.stall)) {
        return bail();
      }
      s.clauses.emplace_back(cl);
    } else if (kind == "burst") {
      BurstClause cl;
      if (!need(kvs, kind, "at", v1, p) || !p.dur(v1, cl.at) ||
          !need(kvs, kind, "victims", v2, p) || !p.pids(v2, cl.victims) ||
          !need(kvs, kind, "down", v3, p) || !p.dur(v3, cl.down)) {
        return bail();
      }
      s.clauses.emplace_back(cl);
    } else if (kind == "storm") {
      StormClause cl;
      if (!need(kvs, kind, "at", v1, p) || !p.dur(v1, cl.at) ||
          !need(kvs, kind, "node", v2, p) || !p.pid(v2, cl.node) ||
          !need(kvs, kind, "ops", v3, p) || !p.u32(v3, cl.ops_ahead) ||
          !need(kvs, kind, "phase", v4, p) || !p.phase(v4, cl.phase) ||
          !need(kvs, kind, "times", v5, p) || !p.u32(v5, cl.times) ||
          !need(kvs, kind, "gap", v6, p) || !p.dur(v6, cl.gap)) {
        return bail();
      }
      s.clauses.emplace_back(cl);
    } else if (kind == "load") {
      LoadClause cl;
      if (!need(kvs, kind, "at", v1, p) || !p.dur(v1, cl.at) ||
          !need(kvs, kind, "for", v2, p) || !p.dur(v2, cl.hold) ||
          !need(kvs, kind, "gap", v3, p) || !p.dur(v3, cl.mean_gap) ||
          !need(kvs, kind, "clients", v4, p) || !p.u32(v4, cl.clients) ||
          !need(kvs, kind, "bytes", v5, p) || !p.u32(v5, cl.bytes)) {
        return bail();
      }
      if (opt(kvs, "keys", v6) && !p.u32(v6, cl.keys)) return bail();
      if (opt(kvs, "hot", v7) && !p.real(v7, cl.hot)) return bail();
      s.clauses.emplace_back(cl);
    } else {
      p.fail("unknown clause kind '" + kind + "'");
      return bail();
    }
  }

  // Structural sanity: every referenced process must exist.
  if (s.n == 0) {
    p.fail("n must be >= 1");
    return bail();
  }
  if (s.groups == 0) {
    p.fail("groups must be >= 1");
    return bail();
  }
  for (const auto& c : s.clauses) {
    bool ok = std::visit(
        [&s](const auto& cl) {
          using T = std::decay_t<decltype(cl)>;
          if constexpr (std::is_same_v<T, PartitionClause>) {
            for (const ProcessId q : cl.side) {
              if (q >= s.n) return false;
            }
          } else if constexpr (std::is_same_v<T, FlapClause>) {
            return cl.a < s.n && cl.b < s.n && cl.a != cl.b &&
                   cl.period > 0;
          } else if constexpr (std::is_same_v<T, GrayClause>) {
            return cl.node < s.n && cl.rx_factor >= 0.0 &&
                   cl.rx_factor <= kMaxFactor;
          } else if constexpr (std::is_same_v<T, SkewClause>) {
            return cl.node < s.n && cl.scale > 0.0 &&
                   cl.scale <= kMaxFactor;
          } else if constexpr (std::is_same_v<T, DiskClause>) {
            return cl.node < s.n && cl.delay_max >= cl.delay_min &&
                   cl.stall_prob >= 0.0 && cl.stall_prob <= 1.0;
          } else if constexpr (std::is_same_v<T, BurstClause>) {
            for (const ProcessId q : cl.victims) {
              if (q >= s.n) return false;
            }
          } else if constexpr (std::is_same_v<T, StormClause>) {
            return cl.node < s.n && cl.ops_ahead >= 1;
          } else {  // LoadClause
            // hot without keys would not survive serialize() (which omits
            // both when keys == 0), breaking the one-line-repro fixpoint.
            return cl.mean_gap > 0 && cl.clients >= 1 && cl.hot >= 0.0 &&
                   cl.hot <= 1.0 && (cl.keys != 0 || cl.hot == 0.0);
          }
          return true;
        },
        c);
    if (!ok) {
      p.fail(std::string(clause_kind(c)) + ": invalid parameters");
      return bail();
    }
  }
  return s;
}

// ---- the adversary -------------------------------------------------------

namespace {

/// A double with two decimals in [lo, hi] — short enough to serialize
/// exactly and read comfortably in a failure log.
double pick_real(Rng& rng, double lo, double hi) {
  const auto lo_c = static_cast<std::int64_t>(lo * 100.0);
  const auto hi_c = static_cast<std::int64_t>(hi * 100.0);
  return static_cast<double>(rng.uniform(lo_c, hi_c)) / 100.0;
}

std::vector<ProcessId> pick_subset(Rng& rng, std::uint32_t n,
                                   std::uint32_t min_size,
                                   std::uint32_t max_size) {
  const auto size = static_cast<std::uint32_t>(
      rng.uniform(min_size, max_size));
  std::vector<ProcessId> all;
  for (ProcessId p = 0; p < n; ++p) all.push_back(p);
  // Partial Fisher-Yates: the first `size` entries are the subset.
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(i, static_cast<std::int64_t>(n) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(size);
  return all;
}

Clause make_clause(Rng& rng, std::size_t kind, const Scenario& s) {
  const auto pick_node = [&rng, &s]() {
    return static_cast<ProcessId>(
        rng.uniform(0, static_cast<std::int64_t>(s.n) - 1));
  };
  const auto pick_at = [&rng, &s]() {
    return millis(rng.uniform(50, s.horizon / millis(1) / 2));
  };
  switch (kind) {
    case 0: {
      PartitionClause cl;
      cl.at = pick_at();
      cl.hold = millis(rng.uniform(100, 350));
      cl.side = pick_subset(rng, s.n, 1, s.n - 1);
      const std::int64_t m = rng.uniform(0, 2);
      cl.mode = m == 0 ? sim::PartitionMode::kSymmetric
                       : (m == 1 ? sim::PartitionMode::kInbound
                                 : sim::PartitionMode::kOutbound);
      return cl;
    }
    case 1: {
      FlapClause cl;
      cl.at = pick_at();
      cl.a = pick_node();
      cl.b = static_cast<ProcessId>((cl.a + 1 +
                                     static_cast<std::uint32_t>(rng.uniform(
                                         0, static_cast<std::int64_t>(s.n) -
                                                2))) %
                                    s.n);
      cl.period = millis(rng.uniform(20, 80));
      cl.count = static_cast<std::uint32_t>(rng.uniform(2, 5));
      return cl;
    }
    case 2: {
      GrayClause cl;
      cl.at = pick_at();
      cl.hold = millis(rng.uniform(100, 350));
      cl.node = pick_node();
      cl.rx_factor = pick_real(rng, 2.0, 20.0);
      return cl;
    }
    case 3: {
      SkewClause cl;
      cl.node = pick_node();
      cl.scale = pick_real(rng, 0.7, 1.5);
      return cl;
    }
    case 4: {
      DiskClause cl;
      cl.at = pick_at();
      cl.hold = millis(rng.uniform(100, 350));
      cl.node = pick_node();
      cl.delay_min = micros(rng.uniform(50, 200));
      cl.delay_max = cl.delay_min + micros(rng.uniform(0, 2000));
      cl.stall_prob = pick_real(rng, 0.0, 0.05);
      cl.stall = millis(rng.uniform(5, 40));
      return cl;
    }
    case 5: {
      BurstClause cl;
      cl.at = pick_at();
      cl.victims = pick_subset(rng, s.n, 1, s.n - 1);
      cl.down = millis(rng.uniform(50, 250));
      return cl;
    }
    case 6: {
      StormClause cl;
      cl.at = pick_at();
      cl.node = pick_node();
      cl.ops_ahead = static_cast<std::uint32_t>(rng.uniform(2, 8));
      const std::int64_t ph = rng.uniform(0, 2);
      cl.phase = ph == 0 ? CrashPhase::kBeforeOp
                         : (ph == 1 ? CrashPhase::kTornWrite
                                    : CrashPhase::kAfterOp);
      cl.times = static_cast<std::uint32_t>(rng.uniform(1, 3));
      cl.gap = millis(rng.uniform(60, 150));
      return cl;
    }
    default: {
      // Extra load clause: a second arrival process (different tempo).
      LoadClause cl;
      cl.at = millis(rng.uniform(0, 100));
      cl.hold = millis(rng.uniform(200, 500));
      cl.mean_gap = millis(rng.uniform(4, 20));
      cl.clients = static_cast<std::uint32_t>(1 << rng.uniform(0, 6));
      cl.bytes = static_cast<std::uint32_t>(rng.uniform(8, 64));
      return cl;
    }
  }
}

}  // namespace

Scenario generate_scenario(std::uint64_t seed) {
  Scenario s;
  s.seed = seed;
  // Cross the protocol axes uniformly, the same parities trace_sweep uses,
  // so consecutive seed ranges cover engine x variant x gossip evenly.
  s.engine = (seed % 2) ? ConsensusKind::kCoord
                        : ConsensusKind::kPaxos;
  s.alternative = ((seed / 2) % 2) != 0;
  s.digest_gossip = ((seed / 4) % 2) != 0;
  s.n = (seed % 10 == 7) ? 5 : 3;

  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xabcbadull);
  s.horizon = millis(rng.uniform(600, 1000));

  // The primary open-loop load clause: always present, spans most of the
  // horizon so faults land under traffic.
  {
    LoadClause load;
    load.at = millis(rng.uniform(0, 40));
    load.hold = s.horizon - load.at - millis(100);
    load.mean_gap = millis(rng.uniform(2, 12));
    load.clients = static_cast<std::uint32_t>(1 << rng.uniform(3, 10));
    load.bytes = static_cast<std::uint32_t>(rng.uniform(8, 64));
    s.clauses.emplace_back(load);
  }

  // One guaranteed clause per seed, rotating through every fault kind (and
  // the extra-load kind) so any 8 consecutive seeds cover all kinds; then
  // 1..3 more drawn at random.
  constexpr std::size_t kKinds = 8;
  s.clauses.push_back(make_clause(rng, seed % kKinds, s));
  const std::int64_t extra = rng.uniform(1, 3);
  for (std::int64_t i = 0; i < extra; ++i) {
    s.clauses.push_back(make_clause(
        rng, static_cast<std::size_t>(rng.uniform(0, kKinds - 1)), s));
  }
  return s;
}

}  // namespace abcast::scenario
