#include "netio/client_pool.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "util/crc32.h"

namespace sm::netio {
namespace {

using Clock = std::chrono::steady_clock;

// Poll ceiling so reader/prober threads notice shutdown on a silent
// socket within one tick.
constexpr int kTickMs = 100;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, kTickMs));
}

void put_u32le_bytes(unsigned char* p, std::uint32_t value) {
  p[0] = static_cast<unsigned char>(value & 0xff);
  p[1] = static_cast<unsigned char>((value >> 8) & 0xff);
  p[2] = static_cast<unsigned char>((value >> 16) & 0xff);
  p[3] = static_cast<unsigned char>((value >> 24) & 0xff);
}

/// Encodes and sends a run of same-typed frames scatter/gather: per-frame
/// header and CRC trailer live on the stack, payload bytes go straight
/// from the caller's views — no frame string is ever materialized. Frames
/// ship in sendmsg chunks of up to kSendChunk (3 iovecs each, well under
/// IOV_MAX), resuming mid-iovec after partial sends.
bool send_frames(int fd, FrameType type,
                 std::span<const std::string_view> payloads) {
  constexpr std::size_t kSendChunk = 64;
  unsigned char headers[kSendChunk][kFrameHeaderSize];
  unsigned char trailers[kSendChunk][kFrameTrailerSize];
  iovec iov[kSendChunk * 3];
  for (std::size_t base = 0; base < payloads.size(); base += kSendChunk) {
    const std::size_t count = std::min(kSendChunk, payloads.size() - base);
    std::size_t iovcnt = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string_view payload = payloads[base + i];
      unsigned char* header = headers[i];
      header[0] = static_cast<unsigned char>(type);
      put_u32le_bytes(header + 1,
                      static_cast<std::uint32_t>(payload.size()));
      std::uint32_t crc = util::crc32(header, kFrameHeaderSize);
      crc = util::crc32(payload.data(), payload.size(), crc);
      put_u32le_bytes(trailers[i], crc);
      iov[iovcnt++] = {header, kFrameHeaderSize};
      if (!payload.empty()) {
        iov[iovcnt++] = {const_cast<char*>(payload.data()), payload.size()};
      }
      iov[iovcnt++] = {trailers[i], kFrameTrailerSize};
      total += kFrameHeaderSize + payload.size() + kFrameTrailerSize;
    }
    std::size_t iov_idx = 0;
    std::size_t sent_total = 0;
    while (sent_total < total) {
      msghdr msg{};
      msg.msg_iov = iov + iov_idx;
      msg.msg_iovlen = iovcnt - iov_idx;
      const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;  // SO_SNDTIMEO expiry surfaces as EAGAIN: dead peer
      }
      sent_total += static_cast<std::size_t>(n);
      std::size_t sent = static_cast<std::size_t>(n);
      while (sent > 0 && sent >= iov[iov_idx].iov_len) {
        sent -= iov[iov_idx].iov_len;
        ++iov_idx;
      }
      if (sent > 0) {
        iov[iov_idx].iov_base =
            static_cast<char*>(iov[iov_idx].iov_base) + sent;
        iov[iov_idx].iov_len -= sent;
      }
    }
  }
  return true;
}

}  // namespace

struct ClientPool::Impl {
  struct Waiter {
    std::promise<CallResult> promise;
    Clock::time_point deadline;
  };

  // One pooled connection. Ownership discipline, so fd lifetime is
  // single-writer: the fd transitions -1 -> live only by a caller (under
  // `mutex`, and only while fd == -1, which implies the reader is parked
  // and not touching fd/decoder), and live -> -1 only by the reader —
  // except that a caller may close it directly when `waiters` is empty
  // (the reader only runs its read phase with waiters in flight, so an
  // empty deque means it is parked behind `mutex`). With waiters in
  // flight a failing caller calls ::shutdown() instead and lets the
  // reader observe the broken stream and clean up.
  struct Conn {
    std::mutex mutex;
    std::condition_variable cv;
    int fd = -1;
    FrameDecoder decoder;
    std::deque<Waiter> waiters;
    std::thread reader;
    // Probe traffic is accounted in pings_ok/pings_failed only; a probe
    // conn stays out of the data-path counters (requests, ok, errors,
    // reconnects) so ROUTER-STATS error classes mean what they say.
    bool is_probe = false;
  };

  struct Backend {
    Endpoint endpoint;
    std::vector<std::unique_ptr<Conn>> conns;  // round-robin data conns
    std::unique_ptr<Conn> probe;  // prober-only, so a slow probe never
                                  // queues behind (or fails) data calls
    std::atomic<std::size_t> next{0};
    std::atomic<bool> healthy{true};

    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> connect_errors{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> io_errors{0};
    std::atomic<std::uint64_t> pings_ok{0};
    std::atomic<std::uint64_t> pings_failed{0};
    std::atomic<std::uint64_t> mark_downs{0};
    std::atomic<std::uint64_t> reconnects{0};
  };

  // The backend list is immutable once published: add_backend copies it,
  // appends, and release-stores the new list (RCU). Readers (call paths,
  // the prober, counters) acquire-load a snapshot and index into it;
  // Backend objects themselves are shared_ptr-owned, so a snapshot taken
  // before an add keeps working unchanged. Backends are never removed —
  // a retired shard's backend just stops being named by any routing
  // table, its counters still visible in ROUTER-STATS.
  using BackendList = std::vector<std::shared_ptr<Backend>>;

  ClientPoolConfig config;
  std::atomic<std::shared_ptr<const BackendList>> backends{nullptr};
  std::mutex grow_mutex;  // serializes add_backend; shutdown takes it to
                          // pin the final list before joining threads
  std::atomic<bool> stop{false};
  std::thread prober;
  std::mutex prober_mutex;
  std::condition_variable prober_cv;

  std::shared_ptr<const BackendList> list() const {
    return backends.load(std::memory_order_acquire);
  }

  static void mark_down(Backend& b) {
    if (b.healthy.exchange(false, std::memory_order_relaxed)) {
      b.mark_downs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Fails and clears every in-flight waiter. Caller holds conn.mutex.
  static void fail_waiters(Conn& conn, CallStatus status) {
    for (Waiter& w : conn.waiters) {
      w.promise.set_value(CallResult{status, {}});
    }
    conn.waiters.clear();
  }

  /// Reader-side teardown. Caller holds conn.mutex. The backend goes
  /// down (and the fd closes) before any waiter is failed, so a caller
  /// woken by its failed future already reads healthy() == false.
  void break_connection(Backend& backend, Conn& conn, CallStatus status) {
    if (!conn.is_probe) {
      const std::uint64_t n = conn.waiters.size();
      auto& counter = status == CallStatus::kTimeout ? backend.timeouts
                                                     : backend.io_errors;
      counter.fetch_add(n, std::memory_order_relaxed);
    }
    ::close(conn.fd);
    conn.fd = -1;
    mark_down(backend);
    fail_waiters(conn, status);
  }

  void reader_loop(Backend& backend, Conn& conn) {
    std::unique_lock lock(conn.mutex);
    for (;;) {
      conn.cv.wait(lock, [&] {
        return stop.load(std::memory_order_acquire) ||
               (conn.fd >= 0 && !conn.waiters.empty());
      });
      if (stop.load(std::memory_order_acquire)) break;
      const int fd = conn.fd;
      const Clock::time_point deadline = conn.waiters.front().deadline;
      lock.unlock();

      pollfd pfd = {fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
      if (ready < 0 && errno != EINTR) {
        lock.lock();
        break_connection(backend, conn, CallStatus::kIoError);
        continue;
      }
      if (ready <= 0) {
        lock.lock();
        if (Clock::now() >= deadline) {
          // The oldest answer is overdue. Everything behind it on this
          // connection is unidentifiable once the stream is abandoned,
          // so the whole flight fails and the connection resets.
          break_connection(backend, conn, CallStatus::kTimeout);
        }
        continue;
      }

      char buf[64 * 1024];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) {
        lock.lock();
        continue;
      }
      lock.lock();
      if (n <= 0) {  // EOF or error: the stream is gone
        break_connection(backend, conn, CallStatus::kIoError);
        continue;
      }
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      bool broken = false;
      Frame frame;
      while (!broken) {
        const DecodeStatus status = conn.decoder.next(frame);
        if (status == DecodeStatus::kNeedMore) break;
        if (status == DecodeStatus::kMalformed || conn.waiters.empty()) {
          // Garbage, or a response nobody asked for: correlation is
          // positional, so the stream is unusable from here on.
          break_connection(backend, conn, CallStatus::kIoError);
          broken = true;
          break;
        }
        Waiter waiter = std::move(conn.waiters.front());
        conn.waiters.pop_front();
        if (!conn.is_probe) {
          backend.ok.fetch_add(1, std::memory_order_relaxed);
        }
        waiter.promise.set_value(CallResult{CallStatus::kOk, std::move(frame)});
        frame = Frame{};
      }
    }
    // Shutdown: resolve anything still in flight, release the socket.
    fail_waiters(conn, CallStatus::kShutdown);
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  /// Sends every payload as one pipelined flight on `conn`: one lock, one
  /// vectored send, payloads.size() FIFO waiters. Futures are appended to
  /// `out` in payload order. Any failure fails the whole batch — the
  /// frames share one stream, so none of them can be answered once it
  /// breaks.
  void call_many_on_conn(Backend& backend, Conn& conn, FrameType type,
                         std::span<const std::string_view> payloads,
                         std::vector<std::future<CallResult>>& out) {
    std::vector<std::promise<CallResult>> promises(payloads.size());
    out.reserve(out.size() + promises.size());
    for (auto& promise : promises) out.push_back(promise.get_future());
    const auto fail_all = [&](CallStatus status) {
      for (auto& promise : promises) {
        promise.set_value(CallResult{status, {}});
      }
    };

    std::lock_guard lock(conn.mutex);
    if (stop.load(std::memory_order_acquire)) {
      fail_all(CallStatus::kShutdown);
      return;
    }
    if (conn.fd < 0) {
      const int fd = dial(backend.endpoint, config.connect_timeout_ms,
                          config.request_timeout_ms);
      if (fd < 0) {
        if (!conn.is_probe) {
          backend.connect_errors.fetch_add(promises.size(),
                                           std::memory_order_relaxed);
        }
        mark_down(backend);
        fail_all(CallStatus::kConnectFailed);
        return;
      }
      conn.fd = fd;
      conn.decoder = FrameDecoder(config.max_frame_payload);
      if (!conn.is_probe) {
        backend.reconnects.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!send_frames(conn.fd, type, payloads)) {
      if (!conn.is_probe) {
        backend.io_errors.fetch_add(promises.size(),
                                    std::memory_order_relaxed);
      }
      mark_down(backend);
      if (conn.waiters.empty()) {
        ::close(conn.fd);  // reader is parked: safe to take the fd down
        conn.fd = -1;
      } else {
        ::shutdown(conn.fd, SHUT_RDWR);  // reader owns the teardown
        conn.cv.notify_all();
      }
      fail_all(CallStatus::kIoError);
      return;
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(config.request_timeout_ms);
    for (auto& promise : promises) {
      conn.waiters.push_back({std::move(promise), deadline});
    }
    conn.cv.notify_all();
  }

  std::future<CallResult> call_on_conn(Backend& backend, Conn& conn,
                                       FrameType type,
                                       std::string_view payload) {
    const std::string_view payloads[1] = {payload};
    std::vector<std::future<CallResult>> futures;
    call_many_on_conn(backend, conn, type, payloads, futures);
    return std::move(futures[0]);
  }

  void probe_loop() {
    std::unique_lock lock(prober_mutex);
    while (!stop.load(std::memory_order_acquire)) {
      prober_cv.wait_for(
          lock, std::chrono::milliseconds(config.ping_interval_ms),
          [&] { return stop.load(std::memory_order_acquire); });
      if (stop.load(std::memory_order_acquire)) break;
      lock.unlock();
      // Per-round snapshot: a backend added mid-round is probed from the
      // next round on.
      const std::shared_ptr<const BackendList> snapshot = list();
      for (const auto& backend : *snapshot) {
        if (stop.load(std::memory_order_acquire)) break;
        std::future<CallResult> future =
            call_on_conn(*backend, *backend->probe, FrameType::kPing, "hp");
        const CallResult result = future.get();
        if (result.ok() && result.response.type == FrameType::kPong) {
          backend->pings_ok.fetch_add(1, std::memory_order_relaxed);
          backend->healthy.store(true, std::memory_order_relaxed);
        } else {
          backend->pings_failed.fetch_add(1, std::memory_order_relaxed);
          mark_down(*backend);
        }
      }
      lock.lock();
    }
  }

  std::shared_ptr<Backend> make_backend(Endpoint endpoint) {
    auto backend = std::make_shared<Backend>();
    backend->endpoint = std::move(endpoint);
    for (std::size_t i = 0; i < config.connections_per_backend; ++i) {
      backend->conns.push_back(std::make_unique<Conn>());
    }
    backend->probe = std::make_unique<Conn>();
    backend->probe->is_probe = true;
    return backend;
  }

  void start_backend(Backend& backend) {
    for (auto& conn : backend.conns) {
      conn->reader = std::thread(
          [this, b = &backend, c = conn.get()] { reader_loop(*b, *c); });
    }
    backend.probe->reader = std::thread(
        [this, b = &backend] { reader_loop(*b, *b->probe); });
  }

  void start() {
    for (const auto& backend : *list()) start_backend(*backend);
    if (config.ping_interval_ms > 0) {
      prober = std::thread([this] { probe_loop(); });
    }
  }

  void shutdown() {
    stop.store(true, std::memory_order_release);
    prober_cv.notify_all();
    // Pin the final list under grow_mutex: any add_backend that won the
    // lock before us is fully in the list (threads included); any that
    // loses it observes `stop` and refuses, so no thread escapes the
    // joins below.
    std::shared_ptr<const BackendList> final_list;
    {
      std::lock_guard grow(grow_mutex);
      final_list = list();
    }
    const auto poke = [](Conn& conn) {
      std::lock_guard lock(conn.mutex);
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
      conn.cv.notify_all();
    };
    for (const auto& backend : *final_list) {
      for (auto& conn : backend->conns) poke(*conn);
      poke(*backend->probe);
    }
    for (const auto& backend : *final_list) {
      for (auto& conn : backend->conns) {
        if (conn->reader.joinable()) conn->reader.join();
      }
      if (backend->probe->reader.joinable()) backend->probe->reader.join();
    }
    if (prober.joinable()) prober.join();
  }
};

ClientPool::ClientPool(std::vector<Endpoint> backends,
                       ClientPoolConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  if (impl_->config.connections_per_backend == 0) {
    impl_->config.connections_per_backend = 1;
  }
  auto initial = std::make_shared<Impl::BackendList>();
  for (Endpoint& endpoint : backends) {
    initial->push_back(impl_->make_backend(std::move(endpoint)));
  }
  impl_->backends.store(std::move(initial), std::memory_order_release);
  impl_->start();
}

ClientPool::~ClientPool() { impl_->shutdown(); }

std::size_t ClientPool::backend_count() const {
  return impl_->list()->size();
}

const Endpoint& ClientPool::backend(std::size_t index) const {
  return (*impl_->list())[index]->endpoint;
}

std::size_t ClientPool::add_backend(const Endpoint& endpoint) {
  std::lock_guard grow(impl_->grow_mutex);
  const std::shared_ptr<const Impl::BackendList> cur = impl_->list();
  for (std::size_t i = 0; i < cur->size(); ++i) {
    const Endpoint& existing = (*cur)[i]->endpoint;
    if (existing.host == endpoint.host && existing.port == endpoint.port) {
      return i;
    }
  }
  if (impl_->stop.load(std::memory_order_acquire)) return kNoBackend;
  std::shared_ptr<Impl::Backend> backend = impl_->make_backend(endpoint);
  impl_->start_backend(*backend);
  auto next = std::make_shared<Impl::BackendList>(*cur);
  next->push_back(std::move(backend));
  impl_->backends.store(std::move(next), std::memory_order_release);
  return cur->size();
}

std::future<CallResult> ClientPool::call(std::size_t backend,
                                         FrameType type,
                                         std::string_view payload) {
  const std::shared_ptr<const Impl::BackendList> list = impl_->list();
  Impl::Backend& b = *(*list)[backend];
  b.requests.fetch_add(1, std::memory_order_relaxed);
  Impl::Conn& conn =
      *b.conns[b.next.fetch_add(1, std::memory_order_relaxed) %
               b.conns.size()];
  return impl_->call_on_conn(b, conn, type, payload);
}

std::vector<std::future<CallResult>> ClientPool::call_many(
    std::size_t backend, FrameType type,
    std::span<const std::string_view> payloads) {
  std::vector<std::future<CallResult>> out;
  if (payloads.empty()) return out;
  const std::shared_ptr<const Impl::BackendList> list = impl_->list();
  Impl::Backend& b = *(*list)[backend];
  b.requests.fetch_add(payloads.size(), std::memory_order_relaxed);
  Impl::Conn& conn =
      *b.conns[b.next.fetch_add(1, std::memory_order_relaxed) %
               b.conns.size()];
  impl_->call_many_on_conn(b, conn, type, payloads, out);
  return out;
}

bool ClientPool::healthy(std::size_t backend) const {
  return (*impl_->list())[backend]->healthy.load(std::memory_order_relaxed);
}

BackendCounters ClientPool::counters(std::size_t backend) const {
  const Impl::Backend& b = *(*impl_->list())[backend];
  BackendCounters out;
  out.requests = b.requests.load(std::memory_order_relaxed);
  out.ok = b.ok.load(std::memory_order_relaxed);
  out.connect_errors = b.connect_errors.load(std::memory_order_relaxed);
  out.timeouts = b.timeouts.load(std::memory_order_relaxed);
  out.io_errors = b.io_errors.load(std::memory_order_relaxed);
  out.pings_ok = b.pings_ok.load(std::memory_order_relaxed);
  out.pings_failed = b.pings_failed.load(std::memory_order_relaxed);
  out.mark_downs = b.mark_downs.load(std::memory_order_relaxed);
  out.reconnects = b.reconnects.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sm::netio
