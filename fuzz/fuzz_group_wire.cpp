// Fuzz family: the multi-group layer's envelope and the sharded-KV command
// riding inside ordered streams (src/group/group_wire.hpp), plus §6.4
// multicast's FILL (src/multicast/multicast_wire.hpp). The envelope and the
// FILL are the tags the multi-group NodeApps decode straight off the UDP
// socket, so their decoders face raw datagrams.
#include "group/group_wire.hpp"
#include "multicast/multicast_wire.hpp"

#include "fuzz/fuzz_util.hpp"

namespace abcast::fuzz {

int fuzz_group_wire(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const Bytes payload = tail(data, size);
  switch (data[0] % 3) {
    // ablint:fuzz GroupEnvelopeMsg
    case 0:
      decode_then_reencode<group::GroupEnvelopeMsg>("group_wire", payload);
      break;
    // ablint:fuzz ShardCommandMsg
    case 1:
      decode_then_reencode<group::ShardCommandMsg>("group_wire", payload);
      break;
    // ablint:fuzz FillMsg
    default:
      decode_then_reencode<multicast::FillMsg>("group_wire", payload);
      break;
  }
  return 0;
}

}  // namespace abcast::fuzz

ABCAST_FUZZ_TARGET(fuzz_group_wire)
