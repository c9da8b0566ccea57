// Adversarial scenario DSL (DESIGN.md §12).
//
// A Scenario is a declarative description of one hostile run: the cluster
// shape, the protocol configuration under test, and a list of fault clauses
// (asymmetric partitions, flapping links, gray failure, clock skew, slow
// disks, correlated crash bursts, crash-point storms) plus an open-loop
// load clause. Scenarios come from two places and are interchangeable:
//
//   * generate_scenario(seed) — the adversary: a single RNG seed expands
//     into a parameterized scenario, so a 100-seed sweep explores hundreds
//     of distinct hostile schedules with no hand-written plans;
//   * parse() — the reproducer: every scenario serializes to one line of
//     text (`scn1 seed=42 n=3 ... gray(at=100ms,for=250ms,node=1,rx=8.5)`),
//     printed on failure, so any red sweep seed replays from the log.
//
// The semantics of each clause live in runner.cpp; this header is only the
// data model, its generator, and the (de)serializer. serialize() and
// parse() are exact inverses for every representable scenario — the
// round-trip is enforced per clause kind by ablint rule 5.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "core/node_stack.hpp"
#include "storage/faulty_storage.hpp"
#include "sim/simulation.hpp"

namespace abcast::scenario {

/// Every clause kind the DSL knows, by its serialized keyword. ablint's
/// scenario-roundtrip rule walks this array and requires a
/// `// ablint:scenario-roundtrip <kind>` round-trip test for each entry;
/// add the test when you add the kind.
constexpr const char* kScenarioClauseKinds[] = {
    "part", "flap", "gray", "skew", "disk", "burst", "storm", "load",
};

/// part(at,for,side,mode): partition {side} from the rest at `at`, heal
/// exactly that cut `for` later. mode=sym|in|out selects which directions
/// across the cut are blocked (see sim::PartitionMode).
struct PartitionClause {
  Duration at = 0;
  Duration hold = 0;
  std::vector<ProcessId> side;
  sim::PartitionMode mode = sim::PartitionMode::kSymmetric;
  bool operator==(const PartitionClause&) const = default;
};

/// flap(at,a,b,period,count): the directed link a->b flaps: blocked for
/// one half-period, restored for the next, `count` full cycles starting at
/// `at`. Ends restored. One-way on purpose — a flapping link that drops
/// only one direction is the nastiest variant.
struct FlapClause {
  Duration at = 0;
  ProcessId a = 0;
  ProcessId b = 0;
  Duration period = 0;
  std::uint32_t count = 0;
  bool operator==(const FlapClause&) const = default;
};

/// gray(at,for,node,rx): gray failure — `node` is slow, not dead: every
/// datagram addressed to it takes rx× the nominal channel delay for the
/// window. Timers and sends still run; peers see a laggard, not a corpse.
struct GrayClause {
  Duration at = 0;
  Duration hold = 0;
  ProcessId node = 0;
  double rx_factor = 1.0;
  bool operator==(const GrayClause&) const = default;
};

/// skew(node,scale): `node`'s clock runs off-rate for the whole run —
/// every protocol timer delay is multiplied by `scale` (>1 slow clock,
/// <1 fast). Persistent by design: skew is a property of the host.
struct SkewClause {
  ProcessId node = 0;
  double scale = 1.0;
  bool operator==(const SkewClause&) const = default;
};

/// disk(at,for,node,min,max,stallp,stall): slow disk — during the window
/// every storage op on `node` accrues a uniform [min,max] delay and, with
/// probability stallp, an additional `stall` hiccup. Realized through the
/// FaultyStorage latency mode; the host stalls past the accrued time.
struct DiskClause {
  Duration at = 0;
  Duration hold = 0;
  ProcessId node = 0;
  Duration delay_min = 0;
  Duration delay_max = 0;
  double stall_prob = 0.0;
  Duration stall = 0;
  bool operator==(const DiskClause&) const = default;
};

/// burst(at,victims,down): correlated crash burst — every victim crashes
/// at the same instant (shared rack, shared power feed) and recovery is
/// attempted `down` later.
struct BurstClause {
  Duration at = 0;
  std::vector<ProcessId> victims;
  Duration down = 0;
  bool operator==(const BurstClause&) const = default;
};

/// storm(at,node,ops,phase,times,gap): crash-point storm — starting at
/// `at` and re-arming every `gap`, `node`'s storage is armed to crash
/// `ops` operations later in `phase`, `times` times in a row. The process
/// keeps dying mid-log-write and recovering into the next armed crash.
struct StormClause {
  Duration at = 0;
  ProcessId node = 0;
  std::uint32_t ops_ahead = 1;
  CrashPhase phase = CrashPhase::kBeforeOp;
  std::uint32_t times = 1;
  Duration gap = 0;
  bool operator==(const StormClause&) const = default;
};

/// load(at,for,gap,clients,bytes[,keys,hot]): open-loop load — arrivals
/// with exponential inter-arrival time (mean `gap`) from `clients`
/// simulated client sessions, each submission a `bytes`-byte A-broadcast
/// at the session's home node. Open-loop: arrivals do not wait for
/// completions, so a stalled cluster accumulates latency instead of
/// hiding it.
///
/// Keyed mode (keys > 0): each arrival is a KV put against a key drawn
/// from a `keys`-sized key space (see pick_key); in a sharded run the key
/// hash picks the owning group, so this is what exercises the router's
/// distribution. `hot` in [0,1] sends that fraction of arrivals to a
/// small hot subset (skewed workloads collapse onto few shards).
struct LoadClause {
  Duration at = 0;
  Duration hold = 0;
  Duration mean_gap = millis(5);
  std::uint32_t clients = 1;
  std::uint32_t bytes = 16;
  std::uint32_t keys = 0;  // 0 = raw payload mode (no keyed routing)
  double hot = 0.0;
  bool operator==(const LoadClause&) const = default;
};

using Clause = std::variant<PartitionClause, FlapClause, GrayClause,
                            SkewClause, DiskClause, BurstClause, StormClause,
                            LoadClause>;

/// The serialized keyword of a clause ("part", "flap", ...).
const char* clause_kind(const Clause& c);

struct Scenario {
  std::uint64_t seed = 1;   // drives the sim's RNG and the load driver
  std::uint32_t n = 3;
  Duration horizon = millis(900);  // all fault activity ends by here
  ConsensusKind engine = ConsensusKind::kPaxos;
  bool alternative = false;   // Options::alternative() vs Options::basic()
  bool digest_gossip = false;
  /// Groups in a sharded run (DESIGN.md §13). 1 = the classic single-group
  /// stack; >1 runs ShardedKvNodes over a uniform layout and audits with
  /// check_sharded_trace. Serialized only when not 1, so every existing
  /// scenario line (and generate_scenario's output) is unchanged.
  std::uint32_t groups = 1;
  std::vector<Clause> clauses;

  bool operator==(const Scenario&) const = default;

  /// One line, fully reproducing the scenario: parse(serialize()) == *this.
  std::string serialize() const;

  /// Parses a serialized scenario line; on failure returns nullopt and,
  /// when `error` is non-null, a human-readable reason.
  static std::optional<Scenario> parse(const std::string& line,
                                       std::string* error = nullptr);
};

/// The adversary: expands one seed into a scenario. Deterministic; the
/// engine/variant/gossip axes are crossed uniformly (seed, seed/2, seed/4
/// parities, matching the trace_sweep convention), and the clause mix is
/// drawn from the seed's RNG with every fault kind guaranteed to appear
/// within any 8 consecutive seeds.
Scenario generate_scenario(std::uint64_t seed);

}  // namespace abcast::scenario
