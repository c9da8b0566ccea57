#include "obs/trace_check.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

namespace abcast::obs {

std::string to_string(const Violation& v) {
  std::string out = v.property;
  out += ": ";
  out += v.message;
  if (v.node != kNoProcess) {
    out += " (node " + std::to_string(v.node) + ", seq " +
           std::to_string(v.seq) + ")";
  }
  return out;
}

namespace {

bool is_adopt(const TraceEvent& e) {
  return e.kind == EventKind::kStateTransfer &&
         (e.detail == "adopt_chunk" || e.detail == "adopt_snap");
}

bool is_chunk_send(const TraceEvent& e) {
  return e.kind == EventKind::kStateTransfer &&
         (e.detail == "send_chunk" || e.detail == "send_snap");
}

}  // namespace

CheckReport check_trace(const std::vector<TraceEvent>& events,
                        const CheckOptions& options) {
  CheckReport report;
  report.stats.events = events.size();

  // Group per node, order by recorder-stamped seq.
  std::map<ProcessId, std::vector<const TraceEvent*>> by_node;
  for (const auto& e : events) by_node[e.node].push_back(&e);
  for (auto& [node, evs] : by_node) {
    std::sort(evs.begin(), evs.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->seq < b->seq;
              });
  }
  report.stats.nodes = by_node.size();

  auto violate = [&report](std::string property, const TraceEvent& e,
                           std::string message) {
    report.violations.push_back(Violation{std::move(property), e.node, e.seq,
                                          std::move(message)});
  };

  // Global cross-node order maps. Positions form the agreed sequence, so the
  // pair (position -> message) must be a bijection across the whole system.
  std::map<std::uint64_t, std::pair<MsgId, ProcessId>> pos_to_msg;
  std::unordered_map<MsgId, std::uint64_t, MsgIdHash> msg_to_pos;
  // Agreement on consensus decisions: instance k -> crc of decided value.
  std::map<std::uint64_t, std::pair<std::uint64_t, ProcessId>> decided_crc;

  std::unordered_map<MsgId, const TraceEvent*, MsgIdHash> broadcasts;
  std::set<MsgId> delivered_anywhere;

  struct NodeTally {
    std::uint64_t reached = 0;  // max position known delivered/covered
    bool up = true;             // lifecycle state at end of trace
    bool has_crash = false;
    std::uint64_t last_crash_seq = 0;
  };
  std::map<ProcessId, NodeTally> tallies;

  for (const auto& [node, evs] : by_node) {
    NodeTally& tally = tallies[node];

    // Per-incarnation delivery state.
    std::uint64_t segment = 0;
    std::uint64_t expected_pos = 0;
    bool allow_jump = false;
    // msg -> (position, segment) of first delivery on this node.
    std::unordered_map<MsgId, std::pair<std::uint64_t, std::uint64_t>,
                       MsgIdHash>
        first_delivery;
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen_in_segment;
    // (segment, consensus instance) -> proposal log-write count.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> prop_writes;

    for (const TraceEvent* ep : evs) {
      const TraceEvent& e = *ep;
      switch (e.kind) {
        case EventKind::kBroadcast:
          ++report.stats.broadcasts;
          if (e.has_msg()) broadcasts.emplace(e.msg, &e);
          break;

        case EventKind::kDeliver: {
          ++report.stats.delivers;
          const std::uint64_t pos = e.arg;

          // Integrity within this node.
          auto [it, inserted] =
              first_delivery.try_emplace(e.msg, pos, segment);
          if (!inserted) {
            if (it->second.first != pos) {
              violate("Integrity", e,
                      "node delivers " + abcast::to_string(e.msg) +
                          " at position " + std::to_string(pos) +
                          " after delivering it at position " +
                          std::to_string(it->second.first));
            } else if (it->second.second == segment) {
              violate("Integrity", e,
                      "node delivers " + abcast::to_string(e.msg) +
                          " twice within one incarnation (position " +
                          std::to_string(pos) + ")");
            }
            // Same position, earlier incarnation: legitimate recovery replay.
          }
          if (!seen_in_segment.emplace(segment, pos).second) {
            violate("Integrity", e,
                    "two deliveries at position " + std::to_string(pos) +
                        " within one incarnation");
          }

          // Position continuity.
          if (pos != expected_pos && !allow_jump) {
            violate("TotalOrder", e,
                    "delivery position " + std::to_string(pos) +
                        " breaks continuity (expected " +
                        std::to_string(expected_pos) + ")");
          }
          expected_pos = pos + 1;
          allow_jump = false;

          // Global total order.
          auto [pit, pos_fresh] =
              pos_to_msg.try_emplace(pos, e.msg, e.node);
          if (!pos_fresh && pit->second.first != e.msg) {
            violate("TotalOrder", e,
                    "position " + std::to_string(pos) + " holds " +
                        abcast::to_string(e.msg) + " here but " +
                        abcast::to_string(pit->second.first) + " on node " +
                        std::to_string(pit->second.second));
          }
          auto [mit, msg_fresh] = msg_to_pos.try_emplace(e.msg, pos);
          if (!msg_fresh && mit->second != pos) {
            violate("TotalOrder", e,
                    abcast::to_string(e.msg) + " delivered at position " +
                        std::to_string(pos) + " here but at position " +
                        std::to_string(mit->second) + " elsewhere");
          }

          delivered_anywhere.insert(e.msg);
          tally.reached = std::max(tally.reached, pos + 1);
          report.stats.max_position =
              std::max(report.stats.max_position, pos + 1);
          break;
        }

        case EventKind::kDecide: {
          ++report.stats.decides;
          auto [it, fresh] =
              decided_crc.try_emplace(e.k, e.arg, e.node);
          if (!fresh && it->second.first != e.arg) {
            violate("Agreement", e,
                    "consensus instance " + std::to_string(e.k) +
                        " decided value crc " + std::to_string(e.arg) +
                        " here but crc " + std::to_string(it->second.first) +
                        " on node " + std::to_string(it->second.second));
          }
          break;
        }

        case EventKind::kLogWrite: {
          ++report.stats.log_writes;
          if (options.basic_protocol && e.detail.rfind("ab/", 0) == 0) {
            violate("LogMinimality", e,
                    "AB-layer log write '" + e.detail +
                        "' in the basic protocol (Fig. 2 logs nothing at the "
                        "AB layer)");
          }
          constexpr std::string_view kPropPrefix = "cons/prop/";
          if (e.detail.size() > kPropPrefix.size() &&
              e.detail.rfind(kPropPrefix, 0) == 0 &&
              std::isdigit(static_cast<unsigned char>(
                  e.detail[kPropPrefix.size()]))) {
            const std::uint64_t k = std::stoull(
                e.detail.substr(kPropPrefix.size()));
            if (++prop_writes[{segment, k}] > 1) {
              violate("LogMinimality", e,
                      "consensus instance " + std::to_string(k) +
                          " logged its proposal more than once within one "
                          "incarnation");
            }
          }
          break;
        }

        case EventKind::kStateTransfer:
          if (is_adopt(e)) {
            allow_jump = true;
            tally.reached = std::max(tally.reached, e.arg);
            // Installing a checkpoint wholesale-replaces the Agreed queue
            // on top of a fresh application state — a reset, so it opens a
            // new delivery segment (tail adoptions only extend the
            // sequence).
            if (e.detail == "adopt_snap") ++segment;
          }
          if (is_chunk_send(e) && options.max_state_chunk_bytes != 0 &&
              e.arg > options.max_state_chunk_bytes) {
            violate("StateBound", e,
                    "state chunk of " + std::to_string(e.arg) +
                        " payload bytes exceeds the configured bound of " +
                        std::to_string(options.max_state_chunk_bytes));
          }
          break;

        case EventKind::kCheckpoint:
          tally.reached = std::max(tally.reached, e.arg);
          break;

        case EventKind::kCrash:
          tally.up = false;
          tally.has_crash = true;
          tally.last_crash_seq = e.seq;
          ++segment;  // a post-crash incarnation (if any) is a new segment
          allow_jump = true;
          break;

        case EventKind::kRecoverBegin:
          tally.up = true;  // provisional; kCrash flips it back
          ++segment;
          allow_jump = true;
          seen_in_segment.clear();
          break;

        case EventKind::kRecoverEnd:
          tally.up = true;
          break;

        case EventKind::kGossipSend:
        case EventKind::kGossipRecv:
        case EventKind::kPropose:
        case EventKind::kLogLine:
        case EventKind::kCrossShard:  // audited by check_sharded_trace
          break;
      }
    }
  }

  report.stats.unique_delivered = delivered_anywhere.size();

  // Validity: every broadcast message is eventually delivered somewhere —
  // unless the broadcaster crashed after broadcasting, in which case the
  // message may legitimately have been lost with the process (the basic
  // protocol keeps Unordered in volatile memory).
  for (const auto& [msg, ev] : broadcasts) {
    if (delivered_anywhere.count(msg) != 0) continue;
    const NodeTally& tally = tallies[ev->node];
    const bool may_be_lost =
        tally.has_crash && tally.last_crash_seq > ev->seq;
    if (options.require_quiesced && !may_be_lost) {
      report.violations.push_back(
          Violation{"Validity", ev->node, ev->seq,
                    abcast::to_string(msg) +
                        " was broadcast but never delivered anywhere"});
    } else {
      report.warnings.push_back(
          "Validity: " + abcast::to_string(msg) +
          " broadcast by node " + std::to_string(ev->node) +
          " was never delivered" +
          (may_be_lost ? " (broadcaster crashed afterwards; may be lost)"
                       : " (trace may be truncated)"));
    }
  }

  // Integrity, second half: nothing is delivered that was not broadcast.
  for (const auto& msg : delivered_anywhere) {
    if (broadcasts.count(msg) != 0) continue;
    if (by_node.count(msg.sender) == 0) {
      report.warnings.push_back(
          "Integrity: " + abcast::to_string(msg) +
          " delivered but its sender's trace is absent (partial merge?)");
    } else {
      report.violations.push_back(
          Violation{"Integrity", msg.sender, 0,
                    abcast::to_string(msg) +
                        " was delivered but never broadcast"});
    }
  }

  // Termination-progress: in a quiesced trace every node that ends up must
  // have reached the global maximum position.
  if (options.require_quiesced) {
    std::uint64_t global_max = 0;
    for (const auto& [node, tally] : tallies) {
      global_max = std::max(global_max, tally.reached);
    }
    for (const auto& [node, tally] : tallies) {
      if (!tally.up) continue;
      if (tally.reached < global_max) {
        report.violations.push_back(Violation{
            "Termination", node, 0,
            "node is up but reached only position " +
                std::to_string(tally.reached) + " of " +
                std::to_string(global_max)});
      }
    }
  }

  // Positions delivered must form a prefix [0, max) somewhere in the system
  // when quiesced — a hole means the order relation is not total.
  if (options.require_quiesced) {
    for (std::uint64_t p = 0; p < report.stats.max_position; ++p) {
      if (pos_to_msg.count(p) == 0) {
        report.violations.push_back(Violation{
            "TotalOrder", kNoProcess, 0,
            "no delivery observed for position " + std::to_string(p) +
                " although position " +
                std::to_string(report.stats.max_position - 1) +
                " was delivered"});
      }
    }
  }

  return report;
}

namespace {

/// Parses a "g<gid>/" storage-scope prefix; returns true and strips it.
bool split_group_scope(std::string& detail, std::uint32_t& gid) {
  if (detail.size() < 3 || detail[0] != 'g' ||
      !std::isdigit(static_cast<unsigned char>(detail[1]))) {
    return false;
  }
  std::size_t i = 1;
  std::uint64_t g = 0;
  while (i < detail.size() &&
         std::isdigit(static_cast<unsigned char>(detail[i]))) {
    g = g * 10 + static_cast<std::uint64_t>(detail[i] - '0');
    ++i;
  }
  if (i >= detail.size() || detail[i] != '/') return false;
  gid = static_cast<std::uint32_t>(g);
  detail.erase(0, i + 1);
  return true;
}

bool is_lifecycle(EventKind kind) {
  return kind == EventKind::kCrash || kind == EventKind::kRecoverBegin ||
         kind == EventKind::kRecoverEnd;
}

}  // namespace

CheckReport check_sharded_trace(const std::vector<TraceEvent>& events,
                                std::uint32_t n_groups,
                                const CheckOptions& options) {
  CheckReport report;
  report.stats.events = events.size();
  if (n_groups == 0) n_groups = 1;

  std::vector<std::vector<TraceEvent>> per_group(n_groups);
  std::set<ProcessId> nodes;

  // Cross-shard bookkeeping. Keyed by pair id; `holds`/`applies` collect
  // (node, group); `owners` is the owner set announced by the events.
  struct PairAudit {
    std::set<std::pair<ProcessId, std::uint32_t>> holds;
    std::set<std::pair<ProcessId, std::uint32_t>> applies;
    std::set<std::uint32_t> owners;
    bool owner_conflict = false;
    const TraceEvent* sample = nullptr;
  };
  std::map<std::uint64_t, PairAudit> pairs;

  for (const auto& e : events) {
    nodes.insert(e.node);
    if (e.group != 0) {
      const std::uint32_t gid = e.group - 1;
      if (gid >= n_groups) {
        report.violations.push_back(Violation{
            "GroupTag", e.node, e.seq,
            "event tagged with group " + std::to_string(gid) +
                " but the run has only " + std::to_string(n_groups) +
                " groups"});
        continue;
      }
      if (e.kind == EventKind::kCrossShard) {
        PairAudit& audit = pairs[e.arg];
        if (audit.sample == nullptr) {
          audit.sample = &e;
          audit.owners = {gid, static_cast<std::uint32_t>(e.k)};
        } else if (audit.owners.count(gid) == 0 ||
                   audit.owners.count(static_cast<std::uint32_t>(e.k)) == 0) {
          audit.owner_conflict = true;
        }
        if (e.detail == "hold") {
          audit.holds.emplace(e.node, gid);
        } else if (e.detail == "apply") {
          audit.applies.emplace(e.node, gid);
        }
        continue;  // not part of any single group's AB property audit
      }
      per_group[gid].push_back(e);
      continue;
    }
    // Host-recorded events. Lifecycle transitions affect every group's
    // incarnation accounting; log writes carry the group in their
    // storage-scope prefix (ScopedStorage "g<gid>"), which must be stripped
    // so the per-group LogMinimality matching ("cons/prop/", "ab/") works.
    if (is_lifecycle(e.kind)) {
      for (auto& bucket : per_group) bucket.push_back(e);
      continue;
    }
    if (e.kind == EventKind::kLogWrite) {
      TraceEvent routed = e;
      std::uint32_t gid = 0;
      if (split_group_scope(routed.detail, gid) && gid < n_groups) {
        per_group[gid].push_back(std::move(routed));
      } else {
        report.warnings.push_back(
            "GroupTag: log write '" + e.detail + "' on node " +
            std::to_string(e.node) + " has no routable group scope");
      }
      continue;
    }
    // Other host events (log lines, host-level markers) have no bearing on
    // any single group's order properties.
  }

  // Per-group property audit; diagnostics prefixed so a violation names the
  // group whose order it breaks.
  for (std::uint32_t g = 0; g < n_groups; ++g) {
    CheckReport sub = check_trace(per_group[g], options);
    const std::string prefix = "g" + std::to_string(g) + ": ";
    for (auto& v : sub.violations) {
      v.message = prefix + v.message;
      report.violations.push_back(std::move(v));
    }
    for (auto& w : sub.warnings) {
      report.warnings.push_back(prefix + std::move(w));
    }
    report.stats.broadcasts += sub.stats.broadcasts;
    report.stats.delivers += sub.stats.delivers;
    report.stats.unique_delivered += sub.stats.unique_delivered;
    report.stats.decides += sub.stats.decides;
    report.stats.log_writes += sub.stats.log_writes;
    report.stats.max_position =
        std::max(report.stats.max_position, sub.stats.max_position);
  }
  report.stats.nodes = nodes.size();

  // CrossShard atomicity.
  for (const auto& [pair_id, audit] : pairs) {
    auto violate = [&](std::string message) {
      report.violations.push_back(
          Violation{"CrossShard", audit.sample->node, audit.sample->seq,
                    "pair " + std::to_string(pair_id) + ": " +
                        std::move(message)});
    };
    if (audit.owner_conflict) {
      violate("events disagree on the pair's owning groups");
      continue;
    }
    for (const auto& site : audit.applies) {
      if (audit.holds.count(site) == 0) {
        violate("effect applied at node " + std::to_string(site.first) +
                " group " + std::to_string(site.second) +
                " without a preceding hold there");
      }
    }
    if (options.require_quiesced) {
      for (const std::uint32_t owner : audit.owners) {
        bool held = false;
        bool applied = false;
        for (const auto& site : audit.holds) held |= site.second == owner;
        for (const auto& site : audit.applies) {
          applied |= site.second == owner;
        }
        if (!held) {
          violate("no hold ever delivered in owning group " +
                  std::to_string(owner));
        } else if (!applied) {
          violate("held but never applied in owning group " +
                  std::to_string(owner) +
                  " — one-sided effect at quiescence");
        }
      }
    }
  }

  return report;
}

}  // namespace abcast::obs
