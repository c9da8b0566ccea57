#include "scenario/runner.hpp"

#include <exception>
#include <memory>
#include <type_traits>

#include "group/group_wire.hpp"
#include "harness/fixture.hpp"

namespace abcast::scenario {

namespace {

/// Channel spice applied to every scenario run: the paper's fair-lossy,
/// duplicating network, mild enough that the load driver's arrivals (not
/// the channel) dominate the schedule. Fixed constants — the serialized
/// scenario line plus these constants fully determine a run.
constexpr double kDropProb = 0.005;
constexpr double kDupProb = 0.005;

/// Width of the SLO latency windows.
constexpr Duration kSloWindow = millis(100);
/// Budget for each drain phase (deliveries, then quiescence).
constexpr Duration kDrainTimeout = seconds(120);
/// Per-host trace ring capacity: large enough that nothing drops, or the
/// strict checker verdict would be meaningless.
constexpr std::size_t kTraceCapacity = 1 << 17;

/// Retries recovery of `p` until it sticks (a recovery can die on its own
/// storage fault; the paper allows crashing during recovery).
void recover_until_up(sim::Simulation* sim, ProcessId p) {
  if (sim->host(p).is_up()) return;
  if (sim->recover(p)) return;
  sim->after(millis(20), [sim, p] { recover_until_up(sim, p); });
}

/// Installs one clause's events. Events at or past the horizon are not
/// scheduled: the horizon cleanup supersedes them (and a fault that would
/// START during the drain would make the drain unsound).
struct Installer {
  sim::Simulation* sim;
  Duration horizon;

  void operator()(const PartitionClause& cl) const {
    if (cl.at >= horizon) return;
    auto* s = sim;
    const auto side = cl.side;
    const auto mode = cl.mode;
    sim->at(cl.at, [s, side, mode] { s->partition(side, mode); });
    const Duration heal = cl.at + cl.hold;
    if (heal < horizon) {
      sim->at(heal, [s, side, mode] { s->unpartition(side, mode); });
    }
  }

  void operator()(const FlapClause& cl) const {
    auto* s = sim;
    const Duration half = cl.period / 2 > 0 ? cl.period / 2 : 1;
    for (std::uint32_t i = 0; i < cl.count; ++i) {
      const Duration down = cl.at + 2 * static_cast<Duration>(i) * half;
      const Duration up = down + half;
      if (down >= horizon) break;
      sim->at(down, [s, a = cl.a, b = cl.b] { s->block_link(a, b); });
      // The restore is scheduled even at/past the horizon: leaving a link
      // blocked can only hurt liveness, and heal_partition at the horizon
      // clears it anyway — this is just the belt to that brace.
      sim->at(up, [s, a = cl.a, b = cl.b] { s->unblock_link(a, b); });
    }
  }

  void operator()(const GrayClause& cl) const {
    if (cl.at >= horizon) return;
    auto* s = sim;
    sim->at(cl.at, [s, n = cl.node, f = cl.rx_factor] {
      s->set_rx_delay_factor(n, f);
    });
    const Duration end = cl.at + cl.hold;
    if (end < horizon) {
      sim->at(end, [s, n = cl.node] { s->set_rx_delay_factor(n, 1.0); });
    }
  }

  void operator()(const SkewClause&) const {
    // Applied before start (timers armed at start must already be skewed);
    // see start_under_faults.
  }

  void operator()(const DiskClause& cl) const {
    if (cl.at >= horizon) return;
    auto* s = sim;
    sim->at(cl.at, [s, cl] {
      auto profile = s->storage_faults(cl.node).profile();
      profile.op_delay_min_ns = cl.delay_min;
      profile.op_delay_max_ns = cl.delay_max;
      profile.stall_prob = cl.stall_prob;
      profile.stall_ns = cl.stall;
      s->storage_faults(cl.node).set_profile(profile);
    });
    const Duration end = cl.at + cl.hold;
    if (end < horizon) {
      sim->at(end, [s, n = cl.node] {
        auto profile = s->storage_faults(n).profile();
        profile.op_delay_min_ns = 0;
        profile.op_delay_max_ns = 0;
        profile.stall_prob = 0.0;
        profile.stall_ns = 0;
        s->storage_faults(n).set_profile(profile);
      });
    }
  }

  void operator()(const BurstClause& cl) const {
    if (cl.at >= horizon) return;
    auto* s = sim;
    const auto victims = cl.victims;
    sim->at(cl.at, [s, victims] {
      for (const ProcessId v : victims) {
        if (s->host(v).is_up()) s->crash(v);
      }
    });
    const Duration back = cl.at + cl.down;
    if (back < horizon) {
      sim->at(back, [s, victims] {
        for (const ProcessId v : victims) recover_until_up(s, v);
      });
    }  // else: the horizon recovery pump brings them back
  }

  void operator()(const StormClause& cl) const {
    auto* s = sim;
    for (std::uint32_t i = 0; i < cl.times; ++i) {
      const Duration arm = cl.at + static_cast<Duration>(i) * cl.gap;
      if (arm >= horizon) break;
      sim->at(arm, [s, cl] {
        s->storage_faults(cl.node).arm_crash_in(cl.ops_ahead, cl.phase);
      });
      // Half a gap later, whatever died is pushed back through recovery
      // (which may itself die on the next armed point — that's the storm).
      const Duration mend = arm + cl.gap / 2;
      if (mend < horizon) {
        sim->at(mend, [s, n = cl.node] { recover_until_up(s, n); });
      }
    }
  }

  void operator()(const LoadClause&) const {
    // Load clauses are driven by LoadDriver, not scheduled here.
  }
};

std::uint64_t fnv1a_order(const std::vector<MsgId>& order) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  for (const auto& id : order) {
    mix(id.sender);
    mix(id.seq);
  }
  return h;
}

// ---- the parts both runners share -----------------------------------------

/// The simulator a scenario runs on: seeded from the scenario, with the
/// fixed channel spice and a trace ring the strict checker can trust.
sim::SimConfig scenario_sim(const Scenario& s,
                            const StorageFactory& storage_factory) {
  sim::SimConfig cfg;
  cfg.n = s.n;
  cfg.seed = s.seed * 2654435761ull + 1;
  cfg.trace_capacity = kTraceCapacity;
  cfg.storage_factory = storage_factory;
  cfg.net.drop_prob = kDropProb;
  cfg.net.dup_prob = kDupProb;
  return cfg;
}

/// The (per-group) stack a scenario selects: its engine, the alternative
/// protocol with 50 ms checkpoints, and its gossip mode.
core::StackConfig scenario_stack(const Scenario& s) {
  core::StackConfig cfg;
  cfg.engine = s.engine;
  if (s.alternative) {
    cfg.ab = core::Options::alternative();
    cfg.ab.checkpoint_period = millis(50);
  }
  cfg.ab.digest_gossip = s.digest_gossip;
  return cfg;
}

/// Skews timers (a host property, applied before any timer is armed),
/// starts every process and installs the fault clauses.
void start_under_faults(sim::Simulation& sim, const Scenario& s) {
  for (const auto& clause : s.clauses) {
    if (const auto* sk = std::get_if<SkewClause>(&clause)) {
      sim.set_timer_scale(sk->node, sk->scale);
    }
  }
  sim.start_all();
  const Installer install{&sim, s.horizon};
  for (const auto& clause : s.clauses) std::visit(install, clause);
}

/// One driver per load clause, deterministically seeded per clause
/// position. Arrivals must not outlive the horizon: the drain phase
/// measures the protocol, not a still-firing workload.
template <typename Driver, typename ClusterT>
std::vector<std::unique_ptr<Driver>> install_load(ClusterT& c,
                                                  const Scenario& s) {
  Rng load_rng(s.seed * 7919ull + 23);
  std::vector<std::unique_ptr<Driver>> drivers;
  for (const auto& clause : s.clauses) {
    if (const auto* ld = std::get_if<LoadClause>(&clause)) {
      LoadClause clamped = *ld;
      if (clamped.at >= s.horizon) continue;
      if (clamped.at + clamped.hold > s.horizon) {
        clamped.hold = s.horizon - clamped.at;
      }
      drivers.push_back(std::make_unique<Driver>(c, clamped, load_rng.fork()));
      drivers.back()->install();
    }
  }
  return drivers;
}

/// The horizon: stop injecting (partitions heal, gray and slow-disk
/// profiles reset, crash-points disarm), then pump every process through
/// recovery. Returns the failure when some process keeps dying.
std::string stop_faults_and_recover(sim::Simulation& sim) {
  sim.heal_partition();
  for (ProcessId p = 0; p < sim.n(); ++p) {
    sim.set_rx_delay_factor(p, 1.0);
    sim.storage_faults(p).disarm_crash_point();
    auto profile = sim.storage_faults(p).profile();
    profile.op_delay_min_ns = 0;
    profile.op_delay_max_ns = 0;
    profile.stall_prob = 0.0;
    profile.stall_ns = 0;
    sim.storage_faults(p).set_profile(profile);
  }
  for (int tries = 0; tries < 200; ++tries) {
    bool all_up = true;
    for (ProcessId p = 0; p < sim.n(); ++p) {
      if (!sim.host(p).is_up()) {
        all_up = false;
        sim.recover(p);
      }
    }
    if (all_up) break;
    sim.run_for(millis(10));
  }
  for (ProcessId p = 0; p < sim.n(); ++p) {
    if (!sim.host(p).is_up()) {
      return "recovery keeps dying at p" + std::to_string(p);
    }
  }
  return {};
}

/// Sums the drivers' load counters and returns the completed submissions
/// whose delivery may be demanded. log_unordered (alternative protocol)
/// makes a completed broadcast durable; otherwise it is demanded only if
/// the submitting process never crashed after the call (paper Termination
/// obliges only processes that stay up).
template <typename Driver>
auto required_submissions(
    const std::vector<std::unique_ptr<Driver>>& drivers, const Scenario& s,
    sim::Simulation& sim, LoadStats& load) {
  std::remove_cvref_t<decltype(drivers.front()->submissions())> required;
  for (const auto& d : drivers) {
    load.arrivals += d->stats().arrivals;
    load.submitted += d->stats().submitted;
    load.completed += d->stats().completed;
    load.rejected_down += d->stats().rejected_down;
    load.pairs_submitted += d->stats().pairs_submitted;
    load.pairs_completed += d->stats().pairs_completed;
    for (const auto& sub : d->submissions()) {
      if (!sub.completed) continue;
      if (s.alternative ||
          sim.host(sub.node).stats().crashes == sub.node_crashes_at_submit) {
        required.push_back(sub);
      }
    }
  }
  return required;
}

/// The strict offline check every run ends with, for stacks whose
/// Env::max_datagram_bytes() is `datagram_limit`.
obs::CheckOptions strict_check(const Scenario& s, std::size_t datagram_limit) {
  obs::CheckOptions check;
  check.require_quiesced = true;
  check.basic_protocol = !s.alternative;
  check.max_state_chunk_bytes = datagram_limit;
  return check;
}

/// Sending a datagram above the network's limit is a protocol bug, not
/// loss, so any oversize drop fails the run, and it is named instead of
/// `other` because it likely caused whatever else went wrong.
std::string oversize_or(const sim::Simulation& sim, std::string other) {
  const std::uint64_t dropped = sim.net_stats().dropped_oversize;
  if (dropped == 0) return other;
  return std::to_string(dropped) + " datagram(s) above the " +
         std::to_string(sim.config().net.max_datagram_bytes) +
         "-byte limit dropped";
}

/// The multi-group twin of run_scenario's body (s.groups > 1). Same setup,
/// fault installation, horizon cleanup and recovery pump; the audits differ
/// because there is no live oracle between app and stack: delivery of
/// required submissions is checked per owning group, replica convergence by
/// shard digest equality, and safety by the strict check_sharded_trace
/// (per-group order + cross-shard atomicity).
RunResult run_sharded_scenario(const Scenario& s,
                               const StorageFactory& storage_factory) {
  RunResult result;

  group::ShardedClusterConfig cfg;
  cfg.sim = scenario_sim(s, storage_factory);
  cfg.node.layout = group::GroupConfig::uniform(s.n, s.groups);
  cfg.node.stack = scenario_stack(s);

  group::ShardedCluster c(cfg);
  auto* sim = &c.sim();
  start_under_faults(*sim, s);
  const auto drivers = install_load<ShardedLoadDriver>(c, s);

  try {
    sim->run_until(s.horizon);
    result.failure = stop_faults_and_recover(*sim);
    if (!result.failure.empty()) return result;

    // (Pair submissions carry no MsgId upward; their obligations are the
    // per-group Validity of their broadcasts plus the CrossShard rule.)
    const auto required = required_submissions(drivers, s, *sim, result.load);
    result.required = required.size();

    result.delivered = sim->run_until_pred(
        [&c, &required] {
          for (const auto& sub : required) {
            if (!c.delivered_everywhere(sub.group, sub.id)) return false;
          }
          return true;
        },
        sim->now() + kDrainTimeout);
    if (!result.delivered) {
      result.failure =
          oversize_or(*sim, "required submissions not delivered everywhere");
      return result;
    }
    result.quiesced = c.await_quiesced(kDrainTimeout);
    if (!result.quiesced) {
      result.failure = oversize_or(*sim, "cluster failed to quiesce");
      return result;
    }
  } catch (const std::exception& e) {
    result.failure = e.what();
    return result;
  }

  result.delivered_global = c.aggregate_delivered();
  // Convergence digest: fold each shard's replica-checked KV digest (the
  // shard_digest call itself asserts replicas agree).
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t g = 0; g < s.groups; ++g) {
    h = (h ^ g) * 1099511628211ull;
    h = (h ^ c.shard_digest(g)) * 1099511628211ull;
  }
  result.order_digest = h;
  result.events_fired = sim->events_fired();

  // ---- the oracle proper: strict offline sharded trace check ------------
  result.failure = oversize_or(*sim, {});
  if (!result.failure.empty()) return result;
  if (c.trace_dropped() != 0) {
    result.failure = "trace ring dropped events; raise kTraceCapacity";
    return result;
  }
  const auto report = obs::check_sharded_trace(
      c.collect_trace(), s.groups,
      strict_check(s, cfg.sim.net.max_datagram_bytes - group::kEnvelopeBytes));
  result.check_stats = report.stats;
  result.checker_ok = report.ok();
  if (!result.checker_ok) {
    result.failure = obs::to_string(report.violations[0]);
  }
  return result;
}

}  // namespace

RunResult run_scenario(const Scenario& s,
                       const StorageFactory& storage_factory) {
  if (s.groups > 1) return run_sharded_scenario(s, storage_factory);

  RunResult result;

  harness::ClusterConfig cfg;
  cfg.sim = scenario_sim(s, storage_factory);
  cfg.stack = scenario_stack(s);

  harness::Cluster c(cfg);
  auto* sim = &c.sim();
  start_under_faults(*sim, s);
  const auto drivers = install_load<LoadDriver>(c, s);

  try {
    sim->run_until(s.horizon);
    result.failure = stop_faults_and_recover(*sim);
    if (!result.failure.empty()) return result;

    std::vector<MsgId> required;
    for (const auto& sub : required_submissions(drivers, s, *sim, result.load)) {
      required.push_back(sub.id);
    }
    result.required = required.size();

    result.delivered = c.await_delivery(required, {}, kDrainTimeout);
    if (!result.delivered) {
      result.failure =
          oversize_or(*sim, "required submissions not delivered everywhere");
      return result;
    }
    result.quiesced = c.await_quiesced(kDrainTimeout);
    if (!result.quiesced) {
      result.failure = oversize_or(*sim, "cluster failed to quiesce");
      return result;
    }
    c.oracle().check();
  } catch (const std::exception& e) {
    // An oracle invariant (total order / integrity / validity) or a
    // harness check tripped mid-run.
    result.failure = e.what();
    return result;
  }

  result.delivered_global = c.oracle().global_order().size();
  result.order_digest = fnv1a_order(c.oracle().global_order());
  result.events_fired = sim->events_fired();

  // ---- SLO accounting ---------------------------------------------------
  obs::WindowedLatency wl(0, kSloWindow);
  for (const auto& tl : c.oracle().timed_latencies()) {
    wl.record(tl.delivered_at, tl.latency);
  }
  result.windows = wl.windows();
  result.overall = wl.overall();

  // ---- the oracle proper: strict offline trace check --------------------
  result.failure = oversize_or(*sim, {});
  if (!result.failure.empty()) return result;
  if (c.trace_dropped() != 0) {
    result.failure = "trace ring dropped events; raise kTraceCapacity";
    return result;
  }
  const auto report = obs::check_trace(
      c.collect_trace(), strict_check(s, cfg.sim.net.max_datagram_bytes));
  result.check_stats = report.stats;
  result.checker_ok = report.ok();
  if (!result.checker_ok) {
    result.failure = obs::to_string(report.violations[0]);
  }
  return result;
}

}  // namespace abcast::scenario
