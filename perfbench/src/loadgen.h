// Open-loop request generator: one thread, a few pipelined connections.
//
// Requests go out on a fixed schedule (request i is due at start + i/rate)
// whether or not earlier replies have arrived, so a slow server faces a
// growing queue instead of a slower client. Replies are matched to
// requests in FIFO order per connection — the notary protocol answers
// every frame on its connection in arrival order and carries no request
// id. Each request is timed from its *scheduled* send time, so a stall
// also charges the requests that queued behind it, and the generator
// records how late it actually sent each one.
//
// The generator does no response checking on its hot path: it keeps the
// response type and the CRC32 of each payload (and of each kBatchInfo
// entry body) for the caller to compare against precomputed expectations
// after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "netio/frame.h"
#include "scan/cert_record.h"

namespace perfbench {

namespace netio = sm::netio;
namespace scan = sm::scan;

enum class RequestKind : std::uint8_t { kQuery, kRevocation, kBatch };

struct Request {
  RequestKind kind = RequestKind::kQuery;
  /// Fingerprint index (single requests) or offset into the batch
  /// fingerprint list (kBatch).
  std::uint32_t first = 0;
  std::uint32_t count = 1;  ///< fingerprints in the request
};

/// What came back for one request, plus its timestamps.
struct Outcome {
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;      ///< 0 = never sent
  std::int64_t received_ns = 0;  ///< 0 = no reply (connection failed)
  netio::FrameType response = netio::FrameType::kError;
  std::uint32_t crc = 0;          ///< CRC32 of the response payload
  std::uint32_t entry_first = 0;  ///< kBatch: offset into `entries`
  std::uint32_t entry_count = 0;  ///< kBatch: decoded kBatchInfo entries

  bool answered() const { return received_ns != 0; }
  double latency_us() const {
    return static_cast<double>(received_ns - scheduled_ns) * 1e-3;
  }
  double late_us() const {
    return static_cast<double>(sent_ns - scheduled_ns) * 1e-3;
  }
};

/// One decoded kBatchInfo entry: its status byte and body CRC32.
struct EntryOutcome {
  netio::FrameType status = netio::FrameType::kError;
  std::uint32_t crc = 0;
};

struct LoadResult {
  std::vector<Outcome> outcomes;  ///< parallel to the request list
  std::vector<EntryOutcome> entries;
  std::size_t sent = 0;  ///< requests sent (a stop flag can end early)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last reply or drain deadline
  double cpu_s = 0;         ///< process CPU over [start, end]
};

class OpenLoopClient {
 public:
  /// Opens `connections` TCP connections to 127.0.0.1:`port`.
  OpenLoopClient(std::uint16_t port, std::size_t connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  bool ok() const { return ok_; }

  /// Sends `requests` at `rate` per second, round-robin over the
  /// connections, then waits up to `drain_ms` for the outstanding
  /// replies. `fingerprints` backs single requests; `batch_fingerprints`
  /// holds the indices (into `fingerprints`) of every batch's entries.
  /// A set `stop` flag ends sending early. Connections that fail are not
  /// reopened; their outstanding requests stay unanswered.
  LoadResult run(const std::vector<Request>& requests, double rate,
                 const std::vector<scan::CertFingerprint>& fingerprints,
                 const std::vector<std::uint32_t>& batch_fingerprints,
                 int drain_ms, const std::atomic<bool>* stop = nullptr);

 private:
  struct Connection;
  std::vector<Connection> connections_;
  int epoll_fd_ = -1;
  bool ok_ = false;
};

}  // namespace perfbench
