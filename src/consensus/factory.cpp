#include "consensus/consensus.hpp"
#include "consensus/coord_engine.hpp"
#include "consensus/paxos_engine.hpp"

namespace abcast {

std::unique_ptr<ConsensusService> make_consensus(ConsensusKind kind, Env& env,
                                                 const LeaderOracle& oracle) {
  switch (kind) {
    case ConsensusKind::kPaxos:
      return std::make_unique<PaxosEngine>(env, oracle);
    case ConsensusKind::kCoord:
      return std::make_unique<CoordEngine>(env, oracle);
  }
  return nullptr;
}

const char* to_string(ConsensusKind kind) {
  switch (kind) {
    case ConsensusKind::kPaxos: return "paxos";
    case ConsensusKind::kCoord: return "coord";
  }
  return "?";
}

}  // namespace abcast
