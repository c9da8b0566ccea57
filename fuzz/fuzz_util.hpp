// Shared plumbing for the decoder fuzz harnesses (DESIGN.md §15).
//
// Every harness is one function `int fuzz_<family>(const uint8_t*, size_t)`
// that dispatches the input across a whole decoder family by selector byte,
// so a single corpus exercises every message layout the family owns. The
// contract mirrors the production exception boundary
// (UdpHost::handle_datagram, the storage recovery paths): CodecError is the ONE accepted rejection
// path; any other exception, signal, sanitizer report, or invariant failure
// escaping the harness is a bug.
//
// The same function body serves three builds:
//   * libFuzzer executables (clang, -fsanitize=fuzzer): the macro emits
//     LLVMFuzzerTestOneInput.
//   * fallback mutation executables (any compiler, fuzz/standalone_main.cpp
//     provides main): the macro emits the C entry point the driver calls.
//   * the abcast_fuzz_targets registry library linked into gen_corpus and
//     tests/fuzz_regression_test: no entry point at all, every family
//     callable side by side (see fuzz/targets.hpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace abcast::fuzz {

[[noreturn]] inline void die(const char* family, const char* what) {
  std::fprintf(stderr, "fuzz_%s: harness invariant failed: %s\n", family,
               what);
  std::abort();
}

/// The input after the selector byte (empty when only the selector arrived).
inline Bytes tail(const std::uint8_t* data, std::size_t size) {
  return size <= 1 ? Bytes{} : Bytes(data + 1, data + size);
}

/// The family workhorse: a malformed input may only be rejected with
/// CodecError; an accepted input must re-encode to a byte-stable fixpoint
/// (decode(enc) must succeed and re-encode to the same bytes — the fuzzing
/// analogue of wire_roundtrip_test's expect_roundtrip).
template <typename T>
void decode_then_reencode(const char* family, const Bytes& in) {
  T msg;
  try {
    msg = decode_from_bytes<T>(in);
  } catch (const CodecError&) {
    return;  // rejection is the contract, not a finding
  }
  const Bytes enc = encode_to_bytes(msg);
  const T again = decode_from_bytes<T>(enc);  // throwing here IS a finding
  if (encode_to_bytes(again) != enc) {
    die(family, "re-encode of a decoded message is not byte-stable");
  }
}

}  // namespace abcast::fuzz

// ABCAST_FUZZ_REQUIRE: harness-level assertion that survives NDEBUG.
#define ABCAST_FUZZ_REQUIRE(family, cond)                  \
  do {                                                     \
    if (!(cond)) ::abcast::fuzz::die((family), #cond);     \
  } while (false)

// The per-build entry-point emitter (see the header comment).
#if defined(ABCAST_FUZZ_LIBFUZZER)
#define ABCAST_FUZZ_TARGET(fn)                                               \
  extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,            \
                                        std::size_t size) {                  \
    return ::abcast::fuzz::fn(data, size);                                   \
  }
#elif defined(ABCAST_FUZZ_ENTRY)
#define ABCAST_FUZZ_TARGET(fn)                                               \
  extern "C" int abcast_fuzz_entry(const std::uint8_t* data,                 \
                                   std::size_t size) {                       \
    return ::abcast::fuzz::fn(data, size);                                   \
  }
#else
#define ABCAST_FUZZ_TARGET(fn)
#endif
