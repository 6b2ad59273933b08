// BlockingClient — one blocking frame-protocol connection, strict
// request/response. The client of every tool that asks a daemon or a
// router something and waits for the answer (sm_notaryd --query/--probe,
// sm_reshard, a ReshardHost streaming a slice, the loopback benches);
// ClientPool is the pipelined, pooled alternative for the router's data
// path.
//
// Every wait is bounded: the connect by kConnectTimeoutMs, each send and
// each receive by the I/O timeout, so a peer that accepts and never
// answers fails the call instead of hanging the caller. The socket is
// CLOEXEC. After any failure the connection is unusable (the stream
// position is lost); error() says why.
#pragma once

#include <string>
#include <string_view>

#include "netio/endpoint.h"
#include "netio/frame.h"

namespace sm::netio {

class BlockingClient {
 public:
  static constexpr int kConnectTimeoutMs = 2'000;
  static constexpr int kIoTimeoutMs = 5'000;

  BlockingClient() = default;
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Connects to `ep`; `io_timeout_ms` bounds every later send and read.
  bool connect(const Endpoint& ep, int io_timeout_ms = kIoTimeoutMs);
  bool connected() const { return fd_ >= 0; }

  /// Sends raw bytes — typically one or more pre-encoded frames, so a
  /// timed loop pays exactly one send syscall per request.
  bool send(std::string_view bytes);

  /// Reads the next response frame.
  bool read_frame(Frame& out);

  /// Encodes and sends one request, then reads its response.
  bool call(FrameType type, std::string_view payload, Frame& out);

  /// Why the last call failed ("" while healthy).
  const std::string& error() const { return error_; }

 private:
  bool fail(std::string reason);

  int fd_ = -1;
  Endpoint peer_;
  // Batch and slice responses aggregate many renders: allow well above a
  // single frame's kMaxFramePayload.
  FrameDecoder decoder_{32u << 20};
  std::string error_;
};

}  // namespace sm::netio
