// Exact order statistics over recorded samples, process resource probes,
// and the result sheet every phase of the benchmark writes into.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

/// User + system CPU seconds of the whole process (getrusage).
double process_cpu_s();

/// Peak resident set size of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending,
/// non-empty): the smallest sample with at least p% of samples at or
/// below it. Exact, never interpolated or bucketed.
double percentile(const std::vector<double>& sorted, double p);

/// Median of `values` (the mean of the two middle samples for an even
/// count); 0 for an empty vector.
double median(std::vector<double> values);

/// A latency distribution as the benchmark reports it: the median, the
/// sample count, and the highest of the standard percentiles that still
/// has at least ten samples beyond it.
struct Distribution {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;  ///< nearest-rank p99 (valid whatever the count)
  double top_percentile = 50;  ///< e.g. 99.9 when count >= 10'000
  double top_value = 0;
  double max = 0;
};

Distribution distribution(std::vector<double> samples);

/// A tail percentile that one stall cannot move: `ordered` (samples in
/// the order they were scheduled) is cut into consecutive slices of at
/// least `min_slice` samples — so each slice's p-th percentile still has
/// ten samples beyond it at p99 — and the median of the slices' exact
/// percentiles is returned. With fewer samples than two slices it is the
/// plain percentile. 0 for no samples.
double sliced_percentile(const std::vector<double>& ordered, double p,
                         std::size_t min_slice = 1000);

/// One line: "name: p50 12.3 us, p99 45.6 us (n=1000; p99.9 = 78.9 us)".
std::string describe(const std::string& name, const std::string& unit,
                     const Distribution& d);

/// Named metrics plus free-form lines for the human-readable report.
/// `end_to_end` and `per_layer` keep insertion order; names are unique
/// within each list.
struct Sheet {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  /// End-to-end figures the benchmark reports but does not gate: on a
  /// shared host their run-to-run spread exceeds any useful bound.
  std::vector<Metric> tails;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every output check passed. Any violation clears it and adds a note.
  bool correct = true;

  void e2e(const std::string& name, double value, const std::string& unit);
  void tail(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
  void fail(const std::string& reason);
};

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
