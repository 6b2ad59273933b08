#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(const std::vector<double>& sorted, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Distribution distribution(std::vector<double> samples) {
  Distribution d;
  d.count = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = median(samples);
  d.p99 = percentile(samples, 99);
  d.max = samples.back();
  d.top_value = d.p50;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(d.count) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 < 10.0) break;
    d.top_percentile = p;
    d.top_value = percentile(samples, p);
  }
  return d;
}

double sliced_percentile(const std::vector<double>& ordered, double p,
                         std::size_t min_slice) {
  if (ordered.empty()) return 0;
  const std::size_t slices = std::max<std::size_t>(1, ordered.size() / min_slice);
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < slices; ++k) {
    std::vector<double> slice(
        ordered.begin() + static_cast<std::ptrdiff_t>(k * ordered.size() / slices),
        ordered.begin() +
            static_cast<std::ptrdiff_t>((k + 1) * ordered.size() / slices));
    std::sort(slice.begin(), slice.end());
    per_slice.push_back(percentile(slice, p));
  }
  return median(std::move(per_slice));
}

std::string describe(const std::string& name, const std::string& unit,
                     const Distribution& d) {
  return format("%s: median %.4g %s, p99 %.4g %s (n=%zu; p%g = %.4g %s, max "
                "%.4g %s)",
                name.c_str(), d.p50, unit.c_str(), d.p99, unit.c_str(),
                d.count, d.top_percentile, d.top_value, unit.c_str(), d.max,
                unit.c_str());
}

void Sheet::e2e(const std::string& name, double value,
                const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Sheet::tail(const std::string& name, double value,
                 const std::string& unit) {
  tails.push_back({name, value, unit});
}

void Sheet::layer(const std::string& name, double value,
                  const std::string& unit) {
  per_layer.push_back({name, value, unit});
}

void Sheet::note(const std::string& line) { notes.push_back(line); }

void Sheet::fail(const std::string& reason) {
  correct = false;
  notes.push_back("CHECK FAILED: " + reason);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
