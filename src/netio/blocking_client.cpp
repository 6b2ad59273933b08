#include "netio/blocking_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace sm::netio {

BlockingClient::~BlockingClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool BlockingClient::fail(std::string reason) {
  error_ = peer_.host + ":" + std::to_string(peer_.port) + ": " +
           std::move(reason);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  return false;
}

bool BlockingClient::connect(const Endpoint& ep, int io_timeout_ms) {
  if (fd_ >= 0) ::close(fd_);
  peer_ = ep;
  decoder_ = FrameDecoder(32u << 20);
  error_.clear();
  fd_ = dial(ep, kConnectTimeoutMs, io_timeout_ms);
  if (fd_ < 0) return fail("cannot connect");
  return true;
}

bool BlockingClient::send(std::string_view bytes) {
  if (fd_ < 0) return fail("not connected");
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return fail(n < 0 && errno == EAGAIN ? "send timed out"
                                           : "send failed");
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool BlockingClient::read_frame(Frame& out) {
  if (fd_ < 0) return fail("not connected");
  for (;;) {
    switch (decoder_.next(out)) {
      case DecodeStatus::kFrame:
        return true;
      case DecodeStatus::kMalformed:
        return fail("malformed response (" + decoder_.error() + ")");
      case DecodeStatus::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return fail("peer closed the connection");
    if (n < 0) {
      return fail(errno == EAGAIN ? "no response within the I/O timeout"
                                  : "receive failed");
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

bool BlockingClient::call(FrameType type, std::string_view payload,
                          Frame& out) {
  return send(encode_frame(type, payload)) && read_frame(out);
}

}  // namespace sm::netio
