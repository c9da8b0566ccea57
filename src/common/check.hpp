// Invariant checking that throws instead of aborting, so tests can assert on
// violations and the simulator can surface them with context; and the one
// exception a caller is expected to handle.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace abcast {

/// Thrown when an internal invariant is violated. Indicates a bug in this
/// library, never a recoverable runtime condition.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// Thrown when the library refuses a caller's request, such as a broadcast
/// payload no datagram can carry. The caller's error, not a bug: the
/// library's state is unchanged, and the real-time host hands it to the
/// thread that made the call (net::UdpHost::call).
class RequestRefused : public std::invalid_argument {
 public:
  explicit RequestRefused(const std::string& what)
      : std::invalid_argument(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantViolation(os.str());
}
}  // namespace detail

}  // namespace abcast

#define ABCAST_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::abcast::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
    }                                                                   \
  } while (false)

#define ABCAST_CHECK_MSG(expr, msg)                                     \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::abcast::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                   \
  } while (false)
