// Wire formats for every consensus-layer datagram payload.
//
// One header holds all of them — the shared decision (EngineBase), the
// Paxos message set, and the rotating-coordinator message set — so each
// layout has exactly one definition site, next to its peers, and is
// reachable from tests/wire_roundtrip_test.cpp. tools/ablint enforces both
// properties (wire-tag homes, registered round-trip tests). The MsgType tag
// each payload rides under is defined in env/wire.hpp.
#pragma once

#include <cstdint>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace abcast::consensus_wire {

using InstanceId = std::uint64_t;

/// The largest fixed part of a message carrying a value: PROMISE's and
/// ESTIMATE's three u64s and the value's u32 length (ACCEPT and NEW_ESTIMATE
/// need 20 B, DECIDED 12 B). EngineBase::max_value_bytes() subtracts it.
inline constexpr std::size_t kValueHeaderBytes = 8 + 8 + 8 + 4;

// ---- shared by both engines (EngineBase) ----------------------------------

/// kPaxosDecided / kCoordDecide payload: a decision, pushed once by its
/// decider and re-sent to whoever shows it lags. Never acked.
struct DecidedMsg {
  InstanceId k = 0;
  Bytes value;

  void encode(BufWriter& w) const {
    w.u64(k);
    w.bytes(value);
  }
  static DecidedMsg decode(BufReader& r) {
    DecidedMsg m;
    m.k = r.u64();
    m.value = r.bytes();
    return m;
  }
};

// ---- Paxos engine ---------------------------------------------------------

struct PrepareMsg {
  InstanceId k = 0;
  std::uint64_t ballot = 0;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(ballot);
  }
  static PrepareMsg decode(BufReader& r) {
    PrepareMsg m;
    m.k = r.u64();
    m.ballot = r.u64();
    return m;
  }
};

struct PromiseMsg {
  InstanceId k = 0;
  std::uint64_t ballot = 0;
  std::uint64_t accepted_ballot = 0;
  Bytes accepted_value;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(ballot);
    w.u64(accepted_ballot);
    w.bytes(accepted_value);
  }
  static PromiseMsg decode(BufReader& r) {
    PromiseMsg m;
    m.k = r.u64();
    m.ballot = r.u64();
    m.accepted_ballot = r.u64();
    m.accepted_value = r.bytes();
    return m;
  }
};

struct AcceptMsg {
  InstanceId k = 0;
  std::uint64_t ballot = 0;
  Bytes value;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(ballot);
    w.bytes(value);
  }
  static AcceptMsg decode(BufReader& r) {
    AcceptMsg m;
    m.k = r.u64();
    m.ballot = r.u64();
    m.value = r.bytes();
    return m;
  }
};

struct AcceptedMsg {
  InstanceId k = 0;
  std::uint64_t ballot = 0;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(ballot);
  }
  static AcceptedMsg decode(BufReader& r) {
    AcceptedMsg m;
    m.k = r.u64();
    m.ballot = r.u64();
    return m;
  }
};

struct NackMsg {
  InstanceId k = 0;
  std::uint64_t promised = 0;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(promised);
  }
  static NackMsg decode(BufReader& r) {
    NackMsg m;
    m.k = r.u64();
    m.promised = r.u64();
    return m;
  }
};

// ---- rotating-coordinator engine ------------------------------------------

struct EstimateMsg {
  InstanceId k = 0;
  std::uint64_t round = 0;
  std::uint64_t ts = 0;
  Bytes est;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(round);
    w.u64(ts);
    w.bytes(est);
  }
  static EstimateMsg decode(BufReader& r) {
    EstimateMsg m;
    m.k = r.u64();
    m.round = r.u64();
    m.ts = r.u64();
    m.est = r.bytes();
    return m;
  }
};

struct NewEstimateMsg {
  InstanceId k = 0;
  std::uint64_t round = 0;
  Bytes value;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(round);
    w.bytes(value);
  }
  static NewEstimateMsg decode(BufReader& r) {
    NewEstimateMsg m;
    m.k = r.u64();
    m.round = r.u64();
    m.value = r.bytes();
    return m;
  }
};

/// Ack and Nack share a shape: instance + round. A nack's round is the
/// *sender's* current round, inviting the receiver to catch up.
struct RoundMsg {
  InstanceId k = 0;
  std::uint64_t round = 0;
  void encode(BufWriter& w) const {
    w.u64(k);
    w.u64(round);
  }
  static RoundMsg decode(BufReader& r) {
    RoundMsg m;
    m.k = r.u64();
    m.round = r.u64();
    return m;
  }
};

}  // namespace abcast::consensus_wire
