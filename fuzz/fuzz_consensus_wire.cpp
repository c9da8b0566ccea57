// Fuzz family: every consensus-layer datagram payload
// (src/consensus/consensus_wire.hpp). The first byte selects the message,
// the rest is the payload handed to its decoder, exactly as an arbitrary
// UDP datagram would reach it through UdpHost::handle_datagram's Wire
// dispatch.
#include "consensus/consensus_wire.hpp"

#include "fuzz/fuzz_util.hpp"

namespace abcast::fuzz {

int fuzz_consensus_wire(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const Bytes payload = tail(data, size);
  using namespace consensus_wire;
  switch (data[0] % 9) {
    // ablint:fuzz DecidedMsg
    case 0: decode_then_reencode<DecidedMsg>("consensus_wire", payload); break;
    // ablint:fuzz PrepareMsg
    case 1: decode_then_reencode<PrepareMsg>("consensus_wire", payload); break;
    // ablint:fuzz PromiseMsg
    case 2: decode_then_reencode<PromiseMsg>("consensus_wire", payload); break;
    // ablint:fuzz AcceptMsg
    case 3: decode_then_reencode<AcceptMsg>("consensus_wire", payload); break;
    // ablint:fuzz AcceptedMsg
    case 4: decode_then_reencode<AcceptedMsg>("consensus_wire", payload); break;
    // ablint:fuzz NackMsg
    case 5: decode_then_reencode<NackMsg>("consensus_wire", payload); break;
    // ablint:fuzz EstimateMsg
    case 6: decode_then_reencode<EstimateMsg>("consensus_wire", payload); break;
    // ablint:fuzz NewEstimateMsg
    case 7:
      decode_then_reencode<NewEstimateMsg>("consensus_wire", payload);
      break;
    // ablint:fuzz RoundMsg
    default: decode_then_reencode<RoundMsg>("consensus_wire", payload); break;
  }
  return 0;
}

}  // namespace abcast::fuzz

ABCAST_FUZZ_TARGET(fuzz_consensus_wire)
