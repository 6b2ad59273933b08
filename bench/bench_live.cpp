// Live-ingestion benchmark: the epoch-publication pipeline behind
// sm_notaryd --ingest. Measures, at paper scale, what one appended scan
// segment costs end to end (chunk-sharing archive copy + re-intern +
// spine extension + snapshot publish), what the query path pays per
// request to read the current epoch (one atomic shared_ptr acquire), and
// what a NotaryService::publish swap costs with precise cache
// invalidation.
// Prints the per-segment ingest trace, then runs google-benchmark
// timings. The daemon-side numbers (query p99 while segments land) come
// from perfbench's ingest phase.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "corpus/live.h"
#include "netio/frame.h"
#include "notary/index.h"
#include "notary/service.h"
#include "scan/archive_io.h"

namespace {

using namespace sm;

constexpr std::size_t kSegments = 3;
constexpr std::size_t kScansPerSegment = 2;

const scan::ScanArchive& archive() { return bench::context().world.archive; }

// The paper-scale archive split once: a base corpus plus serialized SMAR
// segments holding the last scans, the shape --ingest replays.
struct Split {
  scan::ScanArchive base;
  std::vector<std::string> segments;
};

const Split& split() {
  static const Split split = [] {
    Split out;
    const std::size_t total = archive().scans().size();
    const std::size_t base_count = total - kSegments * kScansPerSegment;
    out.base = corpus::extract_segment(archive(), 0, base_count);
    for (std::size_t k = 0; k < kSegments; ++k) {
      const std::size_t first = base_count + k * kScansPerSegment;
      std::ostringstream bytes;
      scan::save_archive(
          corpus::extract_segment(archive(), first, first + kScansPerSegment),
          bytes);
      out.segments.push_back(std::move(bytes).str());
    }
    return out;
  }();
  return split;
}

std::unique_ptr<corpus::LiveCorpus> make_live() {
  return std::make_unique<corpus::LiveCorpus>(
      split().base, &bench::context().world.routing);
}

std::shared_ptr<const notary::NotaryIndex> index_of(
    const corpus::LiveSnapshot& snap) {
  return std::make_shared<const notary::NotaryIndex>(*snap.spine);
}

void report() {
  bench::print_banner("live",
                      "live ingestion: epoch publish + precise invalidation");
  const Split& s = split();
  std::printf("base corpus: %zu certs, %zu scans (+%zu segments x %zu "
              "scans held out)\n",
              s.base.certs().size(), s.base.scans().size(), kSegments,
              kScansPerSegment);

  const auto live = make_live();
  notary::NotaryServiceConfig config;
  config.cache_bytes = 64 << 20;
  notary::NotaryService service(index_of(*live->snapshot()), config);

  // Warm the cache over epoch 0, then ingest every segment and report
  // what each append + publish cost and how much of the cache survived.
  for (scan::CertId id = 0; id < service.index().size(); ++id) {
    const auto& fp = s.base.cert(id).fingerprint;
    service.handle(netio::FrameType::kQuery,
                   std::string(reinterpret_cast<const char*>(fp.data()),
                               fp.size()));
  }
  for (std::size_t k = 0; k < kSegments; ++k) {
    std::istringstream in(s.segments[k]);
    const auto t0 = std::chrono::steady_clock::now();
    const corpus::AppendResult result = live->append_segment(in);
    const double append_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    if (!result.ok) {
      std::printf("append %zu FAILED: %s\n", k + 1, result.error.c_str());
      return;
    }
    const auto snap = live->snapshot();
    const auto p0 = std::chrono::steady_clock::now();
    service.publish(index_of(*snap), snap->delta);
    const double publish_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - p0)
                                  .count();
    std::printf("epoch %llu: append %.1f ms (+%zu certs, %zu obs), "
                "index+publish %.1f ms, delta %zu\n",
                static_cast<unsigned long long>(snap->epoch), append_ms,
                result.new_certs, result.observations, publish_ms,
                result.delta_size);
  }
  const auto metrics = service.metrics();
  std::printf("cache: %llu renders invalidated over %llu swaps "
              "(%zu certs cached before the first)\n\n",
              static_cast<unsigned long long>(metrics.cache_invalidations),
              static_cast<unsigned long long>(metrics.snapshot_swaps),
              static_cast<std::size_t>(service.index().size()));
}

// One full append at paper scale: segment parse, re-intern into an
// archive copy that shares every full certificate chunk, spine extension
// from the previous epoch's, epoch publish. Fresh corpus per
// iteration (appends are not repeatable), so the iteration count is
// pinned and the rebuild happens off the clock.
void BM_LiveAppendSegment(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    const auto live = make_live();
    std::istringstream in(split().segments[0]);
    state.ResumeTiming();
    const corpus::AppendResult result = live->append_segment(in);
    if (!result.ok) {
      state.SkipWithError(result.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kScansPerSegment));
}
BENCHMARK(BM_LiveAppendSegment)->Iterations(3)->Unit(benchmark::kMillisecond);

// The per-request cost of reading the published epoch: one lock-free
// atomic shared_ptr acquire (plus its release on scope exit). This is
// the entire synchronization the query hot path pays.
void BM_SnapshotAcquire(benchmark::State& state) {
  const auto live = make_live();
  for (auto _ : state) {
    auto snap = live->snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotAcquire);

// A NotaryService epoch swap: snapshot store plus the precise per-shard
// invalidation of the delta's cached renders. Arg is the delta size (0 =
// a pure swap).
void BM_NotaryPublishSwap(benchmark::State& state) {
  const auto live = make_live();
  const auto snap = live->snapshot();
  const auto index_a = index_of(*snap);
  const auto index_b = index_of(*snap);
  std::vector<scan::CertId> delta;
  for (scan::CertId id = 0;
       id < static_cast<scan::CertId>(state.range(0)) &&
       id < index_a->size();
       ++id) {
    delta.push_back(id);
  }
  notary::NotaryServiceConfig config;
  config.cache_bytes = 64 << 20;
  notary::NotaryService service(index_a, config);
  bool flip = false;
  for (auto _ : state) {
    service.publish(flip ? index_a : index_b, delta);
    flip = !flip;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NotaryPublishSwap)->Arg(0)->Arg(256)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
