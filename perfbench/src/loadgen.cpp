#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <utility>

#include "notary/batch.h"
#include "stats.h"
#include "util/crc32.h"

namespace perfbench {

struct OpenLoopClient::Connection {
  int fd = -1;
  bool alive = false;
  bool want_write = false;  ///< EPOLLOUT armed
  netio::FrameDecoder decoder{4u << 20};
  std::string out;          ///< encoded requests not yet fully sent
  std::size_t out_sent = 0;
  std::deque<std::uint32_t> awaiting;  ///< requests sent, reply pending
  /// (request, end offset in `out`) for requests not yet fully sent.
  std::deque<std::pair<std::uint32_t, std::size_t>> unflushed;
};

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

OpenLoopClient::OpenLoopClient(std::uint16_t port, std::size_t connections)
    : connections_(connections) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  ok_ = epoll_fd_ >= 0;
  for (std::size_t i = 0; i < connections_.size() && ok_; ++i) {
    Connection& c = connections_[i];
    c.fd = connect_loopback(port);
    if (c.fd < 0) {
      ok_ = false;
      break;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    ok_ = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev) == 0;
    c.alive = ok_;
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (Connection& c : connections_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

LoadResult OpenLoopClient::run(
    const std::vector<Request>& requests, double rate,
    const std::vector<scan::CertFingerprint>& fingerprints,
    const std::vector<std::uint32_t>& batch_fingerprints, int drain_ms,
    const std::atomic<bool>* stop) {
  // Sleep to the scheduled send time without the default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  LoadResult result;
  result.outcomes.resize(requests.size());
  const double interval_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) *
                                             interval_ns);
  };
  result.start_ns = start;
  const double cpu_start = process_cpu_s();

  std::size_t outstanding = 0;
  const auto fail_connection = [&](std::size_t index) {
    Connection& c = connections_[index];
    if (!c.alive) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    c.alive = false;
    outstanding -= c.awaiting.size();
    c.awaiting.clear();
    c.unflushed.clear();
    c.out.clear();
    c.out_sent = 0;
  };
  const auto set_write_interest = [&](std::size_t index, bool want) {
    Connection& c = connections_[index];
    if (c.want_write == want) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(index);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_write = want;
  };
  const auto flush = [&](std::size_t index) {
    Connection& c = connections_[index];
    if (!c.alive) return;
    while (c.out_sent < c.out.size()) {
      const ssize_t n =
          ::send(c.fd, c.out.data() + c.out_sent, c.out.size() - c.out_sent,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fail_connection(index);
      return;
    }
    const std::int64_t sent_at = now_ns();
    while (!c.unflushed.empty() && c.unflushed.front().second <= c.out_sent) {
      result.outcomes[c.unflushed.front().first].sent_ns = sent_at;
      c.unflushed.pop_front();
    }
    if (c.out_sent == c.out.size()) {
      c.out.clear();
      c.out_sent = 0;
    }
    set_write_interest(index, c.out_sent < c.out.size());
  };
  netio::Frame frame;
  const auto receive = [&](std::size_t index) {
    Connection& c = connections_[index];
    char buffer[128 * 1024];
    while (c.alive) {
      const ssize_t n = ::recv(c.fd, buffer, sizeof buffer, MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        fail_connection(index);
        return;
      }
      c.decoder.feed(buffer, static_cast<std::size_t>(n));
      netio::DecodeStatus status;
      while ((status = c.decoder.next(frame)) == netio::DecodeStatus::kFrame) {
        if (c.awaiting.empty()) {  // a reply nobody asked for
          fail_connection(index);
          return;
        }
        Outcome& o = result.outcomes[c.awaiting.front()];
        const Request& request = requests[c.awaiting.front()];
        c.awaiting.pop_front();
        --outstanding;
        o.received_ns = now_ns();
        o.response = frame.type;
        o.crc = sm::util::crc32(frame.payload);
        if (request.kind == RequestKind::kBatch &&
            frame.type == netio::FrameType::kBatchInfo &&
            frame.payload.size() >= 4) {
          // u32le count, then {status u8, length u32le, body} per entry.
          o.entry_first = static_cast<std::uint32_t>(result.entries.size());
          const std::string& p = frame.payload;
          const std::uint32_t count = netio::get_u32le(p.data());
          std::size_t at = 4;
          for (std::uint32_t e = 0; e < count && at + 5 <= p.size(); ++e) {
            const std::uint32_t len = netio::get_u32le(p.data() + at + 1);
            if (at + 5 + len > p.size()) break;
            result.entries.push_back(
                {static_cast<netio::FrameType>(p[at]),
                 sm::util::crc32(p.data() + at + 5,
                                 static_cast<std::size_t>(len))});
            at += 5 + len;
            ++o.entry_count;
          }
        }
      }
      if (status == netio::DecodeStatus::kMalformed) {
        fail_connection(index);
        return;
      }
    }
  };

  std::size_t next = 0;
  std::size_t round_robin = 0;
  std::int64_t drain_deadline = 0;
  std::string batch_payload;
  std::vector<scan::CertFingerprint> batch;
  epoll_event events[64];
  for (;;) {
    const std::int64_t now = now_ns();
    const bool stopping = stop != nullptr && stop->load(std::memory_order_relaxed);
    while (!stopping && next < requests.size() && due(next) <= now) {
      std::size_t index = connections_.size();
      for (std::size_t k = 0; k < connections_.size(); ++k) {
        const std::size_t candidate = (round_robin + k) % connections_.size();
        if (connections_[candidate].alive) {
          index = candidate;
          break;
        }
      }
      if (index == connections_.size()) break;  // every connection failed
      round_robin = index + 1;
      Connection& c = connections_[index];
      const Request& request = requests[next];
      if (request.kind == RequestKind::kBatch) {
        batch.clear();
        for (std::uint32_t e = 0; e < request.count; ++e) {
          batch.push_back(fingerprints[batch_fingerprints[request.first + e]]);
        }
        batch_payload = sm::notary::encode_batch_query(batch);
        netio::encode_frame_into(c.out, netio::FrameType::kBatchQuery,
                                 batch_payload);
      } else {
        const scan::CertFingerprint& fp = fingerprints[request.first];
        netio::encode_frame_into(
            c.out,
            request.kind == RequestKind::kQuery
                ? netio::FrameType::kQuery
                : netio::FrameType::kRevocationQuery,
            {reinterpret_cast<const char*>(fp.data()), fp.size()});
      }
      c.awaiting.push_back(static_cast<std::uint32_t>(next));
      c.unflushed.emplace_back(static_cast<std::uint32_t>(next), c.out.size());
      result.outcomes[next].scheduled_ns = due(next);
      ++outstanding;
      ++next;
    }
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      if (connections_[i].out_sent < connections_[i].out.size()) flush(i);
    }

    bool any_alive = false;
    for (const Connection& c : connections_) any_alive |= c.alive;
    const bool sending_done = stopping || next >= requests.size() || !any_alive;
    std::int64_t wait_ns = 0;
    if (sending_done) {
      if (drain_deadline == 0) {
        drain_deadline = now_ns() + static_cast<std::int64_t>(drain_ms) * 1'000'000;
      }
      const std::int64_t t = now_ns();
      if (outstanding == 0 || t >= drain_deadline) break;
      wait_ns = drain_deadline - t;
    } else {
      wait_ns = std::max<std::int64_t>(0, due(next) - now_ns());
    }
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000);
    timeout.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000);
    const int ready = ::epoll_pwait2(epoll_fd_, events, 64, &timeout, nullptr);
    for (int e = 0; e < ready; ++e) {
      const std::size_t index = events[e].data.u32;
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) receive(index);
      if (events[e].events & EPOLLOUT) flush(index);
    }
  }
  result.sent = next;
  result.end_ns = now_ns();
  result.cpu_s = process_cpu_s() - cpu_start;
  return result;
}

}  // namespace perfbench
