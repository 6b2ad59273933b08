// In-memory span recorder for the traced run.
//
// A span is opened around each call the benchmark makes into a library
// layer and around each request handler it passes to netio::TcpServer.
// Spans are buffered per thread (no lock on the recording path after a
// thread's first span) and collected once at the end of the run. With
// tracing disabled a Scope costs one relaxed atomic load.
//
// Parent links are exact for spans nested on one thread (the survey
// stages inside "survey"). Serving spans run on server worker threads and
// carry a request id derived from the request payload (its fingerprint
// bytes); the wire protocol has no request-id field, so per-hop self time
// is reported as a difference of per-hop medians, and the ids are only
// there to join hops offline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

void set_enabled(bool enabled);
bool enabled();

struct Span {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< 1-based, unique in the run
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0; ///< 0 = not a request span
  std::uint32_t thread = 0;  ///< recording thread, 1-based

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double micros() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

/// Records one span from construction to destruction (when enabled).
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint64_t request_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};

/// A request id for a frame payload: FNV-1a over its first 20 bytes (the
/// fingerprint of a query, or the count and first fingerprint of a batch).
/// Computed only when tracing is enabled.
std::uint64_t request_id(std::string_view payload);

/// Every span recorded so far, from all threads, ordered by start time.
/// Call only while no thread is recording.
std::vector<Span> collect();

/// Writes the spans as a Chrome trace-event JSON array (viewable in
/// Perfetto or chrome://tracing). Returns false on I/O failure.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

/// Mean cost in nanoseconds of recording one span, measured on the
/// calling thread (used to estimate the tracing overhead of a run).
double measure_span_cost_ns();

}  // namespace perfbench::trace
