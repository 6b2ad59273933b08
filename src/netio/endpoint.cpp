#include "netio/endpoint.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace sm::netio {

bool parse_endpoint(std::string_view text, Endpoint& out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return false;
  }
  std::uint32_t port = 0;
  for (const char c : text.substr(colon + 1)) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) return false;
  }
  if (port == 0) return false;
  out.host.assign(text.substr(0, colon));
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

int dial(const Endpoint& ep, int connect_timeout_ms, int io_timeout_ms) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const auto fail = [fd] {
    ::close(fd);
    return -1;
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    return fail();
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) return fail();
    pollfd pfd = {fd, POLLOUT, 0};
    int err = 0;
    socklen_t len = sizeof err;
    if (::poll(&pfd, 1, connect_timeout_ms) <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return fail();
    }
  }
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return fail();
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = (io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

}  // namespace sm::netio
