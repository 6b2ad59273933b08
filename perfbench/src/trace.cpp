#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "stats.h"

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

// Buffers outlive their threads: the registry owns them, each thread
// appends only to its own.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto& buffers = registry();
    buffers.push_back(std::make_unique<ThreadBuffer>());
    buffers.back()->thread = static_cast<std::uint32_t>(buffers.size());
    buffers.back()->spans.reserve(1 << 14);
    return buffers.back().get();
  }();
  return *buffer;
}

// The innermost open span on this thread (the parent of the next one).
thread_local std::uint32_t t_open_span = 0;

}  // namespace

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t request) : name_(name) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open_span;
  t_open_span = id_;
  request_ = request;
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_open_span = parent_;
  ThreadBuffer& buffer = local_buffer();
  buffer.spans.push_back(
      {name_, start_ns_, end, id_, parent_, request_, buffer.thread});
}

std::uint64_t request_id(std::string_view payload) {
  if (!enabled()) return 0;
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < std::min<std::size_t>(payload.size(), 20); ++i) {
    h = (h ^ static_cast<unsigned char>(payload[i])) * 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

std::vector<Span> collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : registry()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":\"%016llx\"}}%s\n",
                 s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 s.micros(), s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

double measure_span_cost_ns() {
  constexpr int kSpans = 20'000;
  const bool was_enabled = enabled();
  set_enabled(true);
  ThreadBuffer& buffer = local_buffer();
  const std::size_t before = buffer.spans.size();
  const std::int64_t start = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    Scope scope("trace.calibrate");
  }
  const std::int64_t elapsed = now_ns() - start;
  buffer.spans.resize(before);  // calibration spans are not part of the run
  set_enabled(was_enabled);
  return static_cast<double>(elapsed) / kSpans;
}

}  // namespace perfbench::trace
