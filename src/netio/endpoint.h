// Endpoints of the frame protocol: the HOST:PORT form every tool accepts
// on its command line, and the bounded TCP connect that both clients
// (ClientPool's pooled connections, BlockingClient's single one) share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sm::netio {

/// One server address (an IPv4 literal plus a port).
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "HOST:PORT" (split at the last colon). Rejects an empty host,
/// an empty port, a port of 0 or above 65535, and anything but decimal
/// digits after the colon. `out` is written only on success.
bool parse_endpoint(std::string_view text, Endpoint& out);

/// Connects to `ep` within `connect_timeout_ms` and returns a blocking,
/// CLOEXEC, TCP_NODELAY socket whose sends and receives each give up
/// after `io_timeout_ms` (SO_SNDTIMEO / SO_RCVTIMEO). Returns -1 on any
/// failure.
int dial(const Endpoint& ep, int connect_timeout_ms, int io_timeout_ms);

}  // namespace sm::netio
