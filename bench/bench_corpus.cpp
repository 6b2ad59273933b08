// Corpus-spine benchmark: the cost of building corpus::CorpusIndex (the
// columnar cert→observation CSR + ASN column + stats rows every layer
// shares) over the paper-scale corpus, its thread scaling, the cost of
// extending it by one appended scan, and the
// before/after of the single-spine refactor — the pre-refactor pipeline
// derived the same columns independently in analysis, linking, tracking,
// and the notary (four builds per survey); the shared spine is built once
// and consumed as zero-copy views. Prints the end-to-end survey
// comparison (wall time + peak RSS + resident footprint), then runs
// google-benchmark timings.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

#include <sys/resource.h>

#include "analysis/dataset.h"
#include "bench/common.h"
#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "linking/linker.h"
#include "notary/index.h"
#include "tracking/tracker.h"
#include "util/thread_pool.h"

namespace {

using namespace sm;

const simworld::WorldResult& world() { return bench::context().world; }

corpus::CorpusOptions spine_options(util::ThreadPool* pool = nullptr) {
  corpus::CorpusOptions options;
  options.routing = &world().routing;
  options.pool = pool;
  return options;
}

long peak_rss_kib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double timed_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Resident bytes of one spine's columns (CSR offsets, {scan,ip} rows,
/// ASN column, stats rows, first-device column).
double spine_footprint_mb(const corpus::CorpusIndex& spine) {
  const double bytes =
      static_cast<double>(spine.cert_count() + 1) * sizeof(std::uint64_t) +
      static_cast<double>(spine.observation_count()) *
          (sizeof(corpus::Obs) + sizeof(net::Asn)) +
      static_cast<double>(spine.cert_count()) *
          (sizeof(corpus::CertStats) + sizeof(scan::DeviceId));
  return bytes / (1024.0 * 1024.0);
}

// The full downstream survey given an already-built spine: §5 analysis
// view, §6 linking, §7 tracking, §8 notary index.
void run_consumers(const corpus::CorpusIndex& spine) {
  const analysis::DatasetIndex index(spine);
  const linking::Linker linker(index);
  const auto linked = linker.link_iteratively();
  const tracking::DeviceTracker tracker(index, linker, linked,
                                        world().as_db);
  const notary::NotaryIndex notary(spine);
  benchmark::DoNotOptimize(linked.groups.size());
  benchmark::DoNotOptimize(tracker.entities().size());
  benchmark::DoNotOptimize(notary.size());
}

void report() {
  bench::print_banner(
      "corpus", "Columnar corpus spine: one build, four consumer layers");
  const auto& archive = world().archive;
  std::printf("corpus: %zu certs, %zu scans, %zu observations\n",
              archive.certs().size(), archive.scans().size(),
              archive.observation_count());

  // Single spine build on the global pool.
  double build_ms = 0;
  {
    corpus::CorpusIndex* spine = nullptr;
    build_ms = timed_ms([&] {
      spine = new corpus::CorpusIndex(archive, spine_options());
    });
    std::printf("spine build (global pool): %.1f ms, %.1f MB resident\n",
                build_ms, spine_footprint_mb(*spine));
    delete spine;
  }

  // Pre-refactor shape: analysis, linking, tracking, and the notary each
  // derived the CSR + ASN column + stats privately — four spine builds
  // held live at once, then the same consumer work.
  const long rss_before_legacy = peak_rss_kib();
  const double legacy_ms = timed_ms([&] {
    const corpus::CorpusIndex s1(archive, spine_options());
    const corpus::CorpusIndex s2(archive, spine_options());
    const corpus::CorpusIndex s3(archive, spine_options());
    const corpus::CorpusIndex s4(archive, spine_options());
    run_consumers(s1);
  });
  const long rss_after_legacy = peak_rss_kib();

  // Post-refactor shape: one spine, every layer a zero-copy view.
  const long rss_before_shared = peak_rss_kib();
  const double shared_ms = timed_ms([&] {
    const corpus::CorpusIndex spine(archive, spine_options());
    run_consumers(spine);
  });
  const long rss_after_shared = peak_rss_kib();

  std::printf("end-to-end survey (spine + link + track + notary):\n");
  std::printf("  four per-layer builds (pre-refactor): %.1f ms, "
              "peak RSS +%ld KiB\n",
              legacy_ms, rss_after_legacy - rss_before_legacy);
  std::printf("  one shared spine (this layout):       %.1f ms, "
              "peak RSS +%ld KiB\n",
              shared_ms, rss_after_shared - rss_before_shared);
  std::printf("  speedup x%.2f\n\n", legacy_ms / shared_ms);
}

void BM_SpineBuild(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const auto options = spine_options(&pool);
  for (auto _ : state) {
    corpus::CorpusIndex spine(world().archive, options);
    benchmark::DoNotOptimize(spine.observation_count());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(world().archive.observation_count()));
}
BENCHMARK(BM_SpineBuild)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Extending a spine by the last scan, the way a live corpus publishes an
// appended segment: the prefix spine (every scan but the last) is built
// once off the clock; each iteration copies its rows and derives only
// what the new scan changes. Real time, since the build is parallel.
void BM_SpineExtend(benchmark::State& state) {
  const std::size_t scans = world().archive.scans().size();
  static const scan::ScanArchive prefix_archive =
      corpus::extract_segment(world().archive, 0, scans - 1);
  static const scan::ScanArchive archive =
      corpus::extract_segment(world().archive, 0, scans);
  static const corpus::CorpusIndex prefix(prefix_archive, spine_options());
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const auto options = spine_options(&pool);
  for (auto _ : state) {
    corpus::CorpusIndex spine(archive, prefix, options);
    benchmark::DoNotOptimize(spine.observation_count());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(archive.scans().back().observations.size()));
}
BENCHMARK(BM_SpineExtend)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// No-routing build: the CSR + stats cost alone, isolating the ASN column.
void BM_SpineBuildNoRouting(benchmark::State& state) {
  for (auto _ : state) {
    corpus::CorpusIndex spine(world().archive);
    benchmark::DoNotOptimize(spine.observation_count());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(world().archive.observation_count()));
}
BENCHMARK(BM_SpineBuildNoRouting)->Unit(benchmark::kMillisecond);

void BM_FourIndependentBuilds(benchmark::State& state) {
  const auto options = spine_options();
  for (auto _ : state) {
    corpus::CorpusIndex s1(world().archive, options);
    corpus::CorpusIndex s2(world().archive, options);
    corpus::CorpusIndex s3(world().archive, options);
    corpus::CorpusIndex s4(world().archive, options);
    benchmark::DoNotOptimize(s4.observation_count());
  }
}
BENCHMARK(BM_FourIndependentBuilds)->Unit(benchmark::kMillisecond);

// A consumer-side read: sweep every cert's observation + ASN spans the
// way the linker's duplicate filter does.
void BM_SpanSweep(benchmark::State& state) {
  static const corpus::CorpusIndex spine(world().archive, spine_options());
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (scan::CertId id = 0; id < spine.cert_count(); ++id) {
      const auto obs = spine.observations(id);
      const auto asns = spine.asns(id);
      for (std::size_t i = 0; i < obs.size(); ++i) {
        acc += obs[i].ip + asns[i];
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(spine.observation_count()));
}
BENCHMARK(BM_SpanSweep);

}  // namespace

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
