#include "netio/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace sm::netio {
namespace {

using Clock = std::chrono::steady_clock;

// epoll_wait ceiling so idle sweeps and drain checks run even on a silent
// socket set.
constexpr int kTickMs = 100;

// How long the acceptor sleeps when accept4 fails for lack of fds. The
// listen socket is level-triggered, so without a pause poll() reports
// POLLIN again immediately and the acceptor pins a core until the fd
// table recovers.
constexpr int kAcceptBackoffMs = 10;

bool is_fd_exhaustion(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

struct TcpServer::Impl {
  // One connection, owned exclusively by one worker. Responses use two
  // buffers: `outbuf` is the in-flight flush (prefix out_off already on
  // the wire), `queued` is where the handler appends new frames. flush()
  // sends both in one vectored sendmsg and swaps `queued` forward when
  // `outbuf` drains — the swap recycles both heap buffers, so a steady
  // pipelined connection stops allocating entirely once the buffers
  // reach their high-water capacity.
  struct Connection {
    explicit Connection(std::size_t max_payload) : decoder(max_payload) {}

    FrameDecoder decoder;
    std::string outbuf;
    std::size_t out_off = 0;  // bytes of outbuf already sent
    std::string queued;       // frames appended since the last flush
    bool close_after_flush = false;
    bool discard_input = false;  // half-closed; draining input to EOF
    bool reading = true;    // EPOLLIN armed
    bool writing = false;   // EPOLLOUT armed
    Clock::time_point last_activity = Clock::now();

    std::size_t unsent() const {
      return outbuf.size() - out_off + queued.size();
    }
  };

  // One worker event loop. All members except `pending`/`wake_fd` are
  // touched only from the worker's own thread.
  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::mutex pending_mutex;
    std::vector<int> pending;  // accepted sockets awaiting adoption
    std::unordered_map<int, std::unique_ptr<Connection>> conns;

    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> malformed{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> idle_exempted{0};
    std::atomic<std::uint64_t> bp_pauses{0};
    std::atomic<std::uint64_t> bp_resumes{0};
    std::atomic<std::uint64_t> lingering{0};
    std::atomic<std::uint64_t> send_calls{0};
  };

  ServerConfig config;
  StreamHandler handler;

  int listen_fd = -1;
  int stop_accept_fd = -1;  // eventfd: tells the acceptor to exit
  std::uint16_t bound_port = 0;
  std::thread acceptor;
  std::vector<std::unique_ptr<Worker>> workers;

  std::atomic<bool> started{false};
  std::atomic<bool> draining{false};
  std::atomic<bool> stopped{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> accept_backoffs{0};
  std::mutex shutdown_mutex;

  // ---- acceptor ----------------------------------------------------------

  void acceptor_loop() {
    std::size_t next_worker = 0;
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_accept_fd, POLLIN, 0}};
      const int n = ::poll(fds, 2, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[1].revents != 0) break;  // shutdown requested
      if ((fds[0].revents & POLLIN) == 0) continue;
      for (;;) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR) continue;
          if (is_fd_exhaustion(errno)) {
            // Out of fds: the pending connection stays in the backlog, so
            // back off instead of spinning on the level-triggered POLLIN.
            // Sleeping on stop_accept_fd keeps shutdown responsive.
            accept_backoffs.fetch_add(1, std::memory_order_relaxed);
            pollfd stop = {stop_accept_fd, POLLIN, 0};
            ::poll(&stop, 1, kAcceptBackoffMs);
          }
          break;  // EAGAIN or a transient accept failure: back to poll
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        accepted.fetch_add(1, std::memory_order_relaxed);
        Worker& worker = *workers[next_worker];
        next_worker = (next_worker + 1) % workers.size();
        {
          std::lock_guard lock(worker.pending_mutex);
          worker.pending.push_back(fd);
        }
        wake(worker);
      }
    }
  }

  static void wake(Worker& worker) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(worker.wake_fd, &one, sizeof one);
  }

  // ---- worker ------------------------------------------------------------

  void update_interest(Worker& worker, int fd, Connection& conn) {
    epoll_event ev{};
    ev.data.fd = fd;
    ev.events = (conn.reading ? EPOLLIN : 0u) | (conn.writing ? EPOLLOUT : 0u);
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }

  void close_connection(Worker& worker, int fd) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    close_quietly(fd);
    worker.conns.erase(fd);
    worker.closed.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sends as much of outbuf + queued as the socket accepts, in one
  /// vectored sendmsg per kernel round (a response queued while the
  /// previous one was still blocked rides out in the same syscall).
  /// Returns false when the connection was closed (write error or
  /// flush-complete on a connection marked close_after_flush).
  bool flush(Worker& worker, int fd, Connection& conn) {
    const std::size_t resume_mark = config.max_buffered_responses / 2;
    while (conn.unsent() > 0) {
      if (conn.out_off == conn.outbuf.size()) {
        // outbuf drained: promote queued frames. swap (not assign)
        // recycles both buffers' heap storage.
        conn.outbuf.clear();
        conn.out_off = 0;
        std::swap(conn.outbuf, conn.queued);
      }
      // A paused connection sends no further than the resume mark: the
      // kernel can accept more than half the budget in one sendmsg, and
      // an uncapped send would jump clean over the resume band.
      const bool paused = !conn.reading && !conn.close_after_flush;
      const std::size_t cap = paused && conn.unsent() > resume_mark
                                  ? conn.unsent() - resume_mark
                                  : conn.unsent();
      const std::size_t head = conn.outbuf.size() - conn.out_off;
      iovec iov[2];
      iov[0].iov_base = conn.outbuf.data() + conn.out_off;
      iov[0].iov_len = std::min(head, cap);
      int iovcnt = 1;
      if (!conn.queued.empty() && cap > head) {
        iov[1].iov_base = conn.queued.data();
        iov[1].iov_len = std::min(conn.queued.size(), cap - head);
        iovcnt = 2;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = iovcnt;
      // sendmsg, not writev: the flags argument carries MSG_NOSIGNAL (a
      // peer that closed mid-response must not SIGPIPE the worker).
      const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (n > 0) {
        worker.send_calls.fetch_add(1, std::memory_order_relaxed);
        std::size_t sent = static_cast<std::size_t>(n);
        if (sent < head) {
          conn.out_off += sent;
        } else {
          // outbuf finished (and possibly part of queued): promote queued
          // to outbuf and mark the bytes sendmsg already covered.
          sent -= head;
          conn.outbuf.clear();
          conn.out_off = 0;
          std::swap(conn.outbuf, conn.queued);
          conn.out_off = sent;
        }
        conn.last_activity = Clock::now();
        // Hysteresis: a paused connection resumes reading as soon as at
        // most half the backpressure budget remains queued — waiting for a
        // completely empty outbuf stalls a pipelining client for a full
        // round trip after every large burst.
        if (paused && conn.unsent() > 0 && conn.unsent() <= resume_mark) {
          conn.reading = true;
          worker.bp_resumes.fetch_add(1, std::memory_order_relaxed);
          update_interest(worker, fd, conn);
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.writing) {
          conn.writing = true;
          update_interest(worker, fd, conn);
        }
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      close_connection(worker, fd);  // peer vanished mid-response
      return false;
    }
    conn.outbuf.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      // Closing while unread request bytes sit in the receive queue makes
      // the kernel send RST, which destroys response bytes still in
      // flight to the peer (a pipelining client mid-burst would lose the
      // tail of a stream we just promised to flush). Probe the queue: if
      // bytes are pending, half-close instead — FIN after the last
      // response byte — and discard input until the peer's EOF completes
      // the close (bounded by the idle sweep / drain deadline).
      char probe;
      if (::recv(fd, &probe, 1, MSG_PEEK) > 0) {
        if (!conn.discard_input) {
          conn.discard_input = true;
          worker.lingering.fetch_add(1, std::memory_order_relaxed);
          ::shutdown(fd, SHUT_WR);
        }
        // Re-arm unconditionally: the drain pass clears `reading` on
        // every connection, including one already lingering.
        conn.reading = true;  // EPOLLIN drives discard_until_eof
        conn.writing = false;
        update_interest(worker, fd, conn);
        return true;
      }
      close_connection(worker, fd);
      return false;
    }
    bool rearm = false;
    if (conn.writing) {
      conn.writing = false;
      rearm = true;
    }
    // Backpressure released: the response queue flushed before the
    // half-drain threshold had a chance to re-arm reading. (Not counted
    // as a backpressure_resume — that counter tracks only resumes with
    // bytes still queued, i.e. the hysteresis path.)
    if (!conn.reading && !conn.close_after_flush) {
      conn.reading = true;
      rearm = true;
    }
    if (rearm) update_interest(worker, fd, conn);
    return true;
  }

  /// Consumes and discards input on a half-closed lingering connection;
  /// the peer's EOF completes the close. Returns false when the
  /// connection was closed. last_activity is deliberately not refreshed:
  /// the idle sweep bounds how long a peer that never stops sending (or
  /// never closes) can hold the lingering connection open.
  bool discard_until_eof(Worker& worker, int fd) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      close_connection(worker, fd);  // EOF (or error): linger complete
      return false;
    }
  }

  /// Reads, decodes, and dispatches everything available on `fd`. Returns
  /// false when the connection was closed.
  bool handle_input(Worker& worker, int fd, Connection& conn) {
    char buf[64 * 1024];
    bool saw_eof = false;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
        conn.last_activity = Clock::now();
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n == 0) {
        saw_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(worker, fd);
      return false;
    }

    Frame request;
    for (;;) {
      const DecodeStatus status = conn.decoder.next(request);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kMalformed) {
        // One error frame, then drop the connection: framing is lost, so
        // nothing after the bad bytes can be trusted.
        worker.malformed.fetch_add(1, std::memory_order_relaxed);
        encode_frame_into(conn.queued, FrameType::kError,
                          conn.decoder.error());
        conn.close_after_flush = true;
        conn.reading = false;
        update_interest(worker, fd, conn);
        return flush(worker, fd, conn);
      }
      worker.frames.fetch_add(1, std::memory_order_relaxed);
      // The handler appends the encoded response frame straight into the
      // connection's queue buffer — no intermediate Frame, no re-encode.
      handler(request.type, request.payload, conn.queued);
    }

    if (saw_eof) {
      // Flush whatever responses are pending, then close.
      conn.close_after_flush = true;
      conn.reading = false;
      update_interest(worker, fd, conn);
      return flush(worker, fd, conn);
    }
    if (!flush(worker, fd, conn)) return false;
    if (conn.unsent() > config.max_buffered_responses && conn.reading) {
      conn.reading = false;  // pipelining backpressure
      worker.bp_pauses.fetch_add(1, std::memory_order_relaxed);
      update_interest(worker, fd, conn);
    }
    return true;
  }

  void adopt_pending(Worker& worker) {
    std::vector<int> adopted;
    {
      std::lock_guard lock(worker.pending_mutex);
      adopted.swap(worker.pending);
    }
    const bool drain = draining.load(std::memory_order_acquire);
    for (const int fd : adopted) {
      if (drain) {  // raced with shutdown: nothing was promised to the peer
        close_quietly(fd);
        worker.closed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      auto conn = std::make_unique<Connection>(config.max_frame_payload);
      epoll_event ev{};
      ev.data.fd = fd;
      ev.events = EPOLLIN;
      if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        close_quietly(fd);
        worker.closed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      worker.conns.emplace(fd, std::move(conn));
    }
  }

  void sweep_idle(Worker& worker) {
    const auto now = Clock::now();
    const auto limit = std::chrono::milliseconds(config.idle_timeout_ms);
    std::vector<int> idle;
    for (const auto& [fd, conn] : worker.conns) {
      if (now - conn->last_activity <= limit) continue;
      // A connection stalled behind our own EPOLLOUT queue is not idle:
      // the server still owes it bytes, and only reads/writes refresh
      // last_activity, so reaping here would cut a response off
      // mid-frame. Leave it to the kernel's write path — if the peer is
      // truly gone, send() fails and close_connection runs then.
      if (conn->unsent() > 0 && conn->writing) {
        worker.idle_exempted.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      idle.push_back(fd);
    }
    for (const int fd : idle) {
      worker.idle_closed.fetch_add(1, std::memory_order_relaxed);
      close_connection(worker, fd);
    }
  }

  void worker_loop(Worker& worker) {
    bool drain_seen = false;
    Clock::time_point drain_deadline{};
    epoll_event events[64];
    for (;;) {
      const int n = ::epoll_wait(worker.epoll_fd, events, 64, kTickMs);
      if (n < 0 && errno != EINTR) break;
      bool adopt = false;
      for (int i = 0; i < std::max(n, 0); ++i) {
        const int fd = events[i].data.fd;
        if (fd == worker.wake_fd) {
          std::uint64_t drainv;
          while (::read(worker.wake_fd, &drainv, sizeof drainv) > 0) {
          }
          // Adopt AFTER the batch: registering a connection here could
          // reuse an fd number closed earlier in this events[] array, and
          // a stale EPOLLHUP/EPOLLERR for the old socket later in the
          // batch would then kill the freshly adopted connection.
          adopt = true;
          continue;
        }
        auto it = worker.conns.find(fd);
        if (it == worker.conns.end()) continue;  // closed earlier this batch
        Connection& conn = *it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
            (events[i].events & EPOLLIN) == 0) {
          close_connection(worker, fd);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) {
          if (!flush(worker, fd, conn)) continue;
        }
        if ((events[i].events & EPOLLIN) != 0) {
          if (conn.discard_input) {
            // Lingering half-closed connections drain input even while
            // the server itself is draining.
            if (!discard_until_eof(worker, fd)) continue;
          } else if (conn.reading && !drain_seen) {
            if (!handle_input(worker, fd, conn)) continue;
          }
        }
      }
      if (adopt) adopt_pending(worker);

      if (draining.load(std::memory_order_acquire)) {
        if (!drain_seen) {
          drain_seen = true;
          drain_deadline = Clock::now() + std::chrono::milliseconds(
                                              config.drain_timeout_ms);
          adopt_pending(worker);  // sockets handed off before the stop
          // Stop consuming requests; finish sending what is queued. flush
          // either closes the drained connection (nothing unsent) or arms
          // EPOLLOUT for the remainder.
          std::vector<int> open_fds;
          open_fds.reserve(worker.conns.size());
          for (const auto& [fd, conn] : worker.conns) {
            open_fds.push_back(fd);
          }
          for (const int fd : open_fds) {
            const auto it = worker.conns.find(fd);
            if (it == worker.conns.end()) continue;
            it->second->reading = false;
            it->second->close_after_flush = true;
            update_interest(worker, fd, *it->second);
            flush(worker, fd, *it->second);
          }
        }
        if (worker.conns.empty() || Clock::now() >= drain_deadline) break;
        continue;
      }
      sweep_idle(worker);
    }
    // Force-close anything the drain deadline cut off.
    while (!worker.conns.empty()) {
      close_connection(worker, worker.conns.begin()->first);
    }
  }

  // ---- lifecycle ---------------------------------------------------------

  bool start(std::string* error) {
    const auto fail = [&](const char* what) {
      // strerror before any close() below can clobber errno.
      if (error != nullptr) {
        *error = std::string(what) + ": " + std::strerror(errno);
      }
      // Unwind everything created so far — shutdown() early-returns while
      // `started` is false, so a partial start must clean up after itself
      // or earlier workers' epoll/event fds leak.
      for (const auto& worker : workers) {
        close_quietly(worker->epoll_fd);
        close_quietly(worker->wake_fd);
      }
      workers.clear();
      close_quietly(stop_accept_fd);
      stop_accept_fd = -1;
      close_quietly(listen_fd);
      listen_fd = -1;
      return false;
    };

    // Every fd the server creates is CLOEXEC: the embedding tool may
    // fork/exec helpers, and a leaked listen socket would hold the port
    // open (and leaked epoll/event fds pin kernel resources) after
    // shutdown for as long as the child lives.
    listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return fail("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      return fail("inet_pton");
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      return fail("bind");
    }
    if (::listen(listen_fd, 128) != 0) return fail("listen");
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);

    stop_accept_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (stop_accept_fd < 0) return fail("eventfd");

    std::size_t count = config.workers;
    if (count == 0) count = std::thread::hardware_concurrency();
    if (count == 0) count = 1;
    for (std::size_t i = 0; i < count; ++i) {
      auto worker = std::make_unique<Worker>();
      worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      worker->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (worker->epoll_fd < 0 || worker->wake_fd < 0) {
        close_quietly(worker->epoll_fd);
        close_quietly(worker->wake_fd);
        return fail("worker setup");
      }
      epoll_event ev{};
      ev.data.fd = worker->wake_fd;
      ev.events = EPOLLIN;
      ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev);
      workers.push_back(std::move(worker));
    }
    for (auto& worker : workers) {
      worker->thread = std::thread([this, w = worker.get()] {
        worker_loop(*w);
      });
    }
    acceptor = std::thread([this] { acceptor_loop(); });
    started.store(true, std::memory_order_release);
    return true;
  }

  void shutdown() {
    std::lock_guard lock(shutdown_mutex);
    if (!started.load(std::memory_order_acquire) ||
        stopped.load(std::memory_order_acquire)) {
      return;
    }
    // 1. Stop the intake: no new connections once the drain begins.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(stop_accept_fd, &one, sizeof one);
    acceptor.join();
    close_quietly(listen_fd);
    listen_fd = -1;

    // 2. Drain the workers: flush queued responses, then close and join.
    draining.store(true, std::memory_order_release);
    for (auto& worker : workers) wake(*worker);
    for (auto& worker : workers) worker->thread.join();
    for (auto& worker : workers) {
      close_quietly(worker->epoll_fd);
      close_quietly(worker->wake_fd);
    }
    close_quietly(stop_accept_fd);
    stop_accept_fd = -1;
    stopped.store(true, std::memory_order_release);
  }

  ServerCounters counters() const {
    ServerCounters out;
    out.connections_accepted = accepted.load(std::memory_order_relaxed);
    out.accept_backoffs = accept_backoffs.load(std::memory_order_relaxed);
    for (const auto& worker : workers) {
      out.connections_closed +=
          worker->closed.load(std::memory_order_relaxed);
      out.frames_handled += worker->frames.load(std::memory_order_relaxed);
      out.malformed_frames +=
          worker->malformed.load(std::memory_order_relaxed);
      out.idle_closed +=
          worker->idle_closed.load(std::memory_order_relaxed);
      out.idle_exempted +=
          worker->idle_exempted.load(std::memory_order_relaxed);
      out.backpressure_pauses +=
          worker->bp_pauses.load(std::memory_order_relaxed);
      out.backpressure_resumes +=
          worker->bp_resumes.load(std::memory_order_relaxed);
      out.lingering_closes +=
          worker->lingering.load(std::memory_order_relaxed);
      out.send_syscalls +=
          worker->send_calls.load(std::memory_order_relaxed);
    }
    return out;
  }
};

TcpServer::TcpServer(ServerConfig config, Handler handler)
    : TcpServer(std::move(config),
                StreamHandler([h = std::move(handler)](
                                  FrameType type, std::string_view payload,
                                  std::string& out) {
                  const Frame response = h(type, payload);
                  encode_frame_into(out, response.type, response.payload);
                })) {}

TcpServer::TcpServer(ServerConfig config, StreamHandler handler)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  impl_->handler = std::move(handler);
}

TcpServer::~TcpServer() {
  if (impl_ != nullptr) impl_->shutdown();
}

bool TcpServer::start(std::string* error) { return impl_->start(error); }

std::uint16_t TcpServer::port() const { return impl_->bound_port; }

void TcpServer::shutdown() { impl_->shutdown(); }

bool TcpServer::running() const {
  return impl_->started.load(std::memory_order_acquire) &&
         !impl_->stopped.load(std::memory_order_acquire);
}

ServerCounters TcpServer::counters() const { return impl_->counters(); }

}  // namespace sm::netio
