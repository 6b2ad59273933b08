#include "serve.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "corpus/live.h"
#include "loadgen.h"
#include "netio/client_pool.h"
#include "netio/server.h"
#include "notary/index.h"
#include "notary/router.h"
#include "notary/service.h"
#include "scan/archive_io.h"
#include "trace.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using sm::netio::FrameType;

// Fixed offered rates (requests/s). Both sit well below the knee of their
// deployment on a 4-CPU host, so latency there is service time, not queue.
constexpr double kLookupRate = 4000;
constexpr double kIngestRate = 4000;
// The ladder: kLookupRate * kLadderStep^k, k = -kLadderDown..kLadderUp
// (about 500 to 36,000 req/s).
constexpr double kLadderStep = 1.05;
constexpr int kLadderDown = 42;
constexpr int kLadderUp = 45;
constexpr double kLatencyLimitUs = 1000;
constexpr std::size_t kBatchSize = 32;
constexpr std::size_t kCacheBytes = 64u << 20;  // sm_notaryd's default
constexpr std::size_t kHeldOutScans = 8;
constexpr int kDrainMs = 3000;

std::string_view fingerprint_view(const sm::scan::CertFingerprint& fp) {
  return {reinterpret_cast<const char*>(fp.data()), fp.size()};
}

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

Expected expect(sm::notary::NotaryService& oracle, FrameType type,
                const sm::scan::CertFingerprint& fp) {
  const sm::netio::Frame frame = oracle.handle(type, fingerprint_view(fp));
  return {frame.type, sm::util::crc32(frame.payload)};
}

// Fills `table[i]` with the oracle's answer to `type` for fingerprint i
// (only where `only[i]` is set, when `only` is given).
void expect_all(sm::notary::NotaryService& oracle, FrameType type,
                const std::vector<sm::scan::CertFingerprint>& fps,
                std::vector<Expected>& table,
                const std::vector<bool>* only = nullptr) {
  table.resize(fps.size());
  sm::util::ThreadPool::global().parallel_for(
      fps.size(), 4096, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (only == nullptr || (*only)[i]) {
            table[i] = expect(oracle, type, fps[i]);
          }
        }
      });
}

// Draws certificate indices with the workload's popularity.
class Picker {
 public:
  Picker(Popularity popularity, std::size_t n, std::uint64_t seed)
      : popularity_(popularity), rng_(seed), uniform_(0, n - 1) {
    if (popularity_ != Popularity::kZipf) return;
    rank_to_cert_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      rank_to_cert_[i] = static_cast<std::uint32_t>(i);
    }
    std::shuffle(rank_to_cert_.begin(), rank_to_cert_.end(), rng_);
    cdf_.resize(n);
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -0.99);
      cdf_[r] = total;
    }
  }

  std::uint32_t next() {
    if (popularity_ != Popularity::kZipf) {
      return static_cast<std::uint32_t>(uniform_(rng_));
    }
    const double u = std::uniform_real_distribution<double>(0, cdf_.back())(rng_);
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_to_cert_[std::min(rank, rank_to_cert_.size() - 1)];
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  Popularity popularity_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<std::size_t> uniform_;
  std::vector<std::uint32_t> rank_to_cert_;
  std::vector<double> cdf_;
};

// A request list plus the fingerprint indices its batches carry.
struct Workload {
  std::vector<Request> requests;
  std::vector<std::uint32_t> batch_fps;
};

// `count` requests; with `mixed`, 90% kQuery / 5% kRevocationQuery / 5%
// kBatchQuery of kBatchSize, otherwise kQuery only.
Workload make_requests(Picker& picker, std::size_t count, bool mixed) {
  Workload w;
  w.requests.reserve(count);
  std::uniform_real_distribution<double> coin(0, 1);
  for (std::size_t i = 0; i < count; ++i) {
    const double c = mixed ? coin(picker.rng()) : 0.0;
    Request r;
    if (c < 0.90) {
      r = {RequestKind::kQuery, picker.next(), 1};
    } else if (c < 0.95) {
      r = {RequestKind::kRevocation, picker.next(), 1};
    } else {
      r = {RequestKind::kBatch, static_cast<std::uint32_t>(w.batch_fps.size()),
           static_cast<std::uint32_t>(kBatchSize)};
      for (std::size_t e = 0; e < kBatchSize; ++e) {
        w.batch_fps.push_back(picker.next());
      }
    }
    w.requests.push_back(r);
  }
  return w;
}

// Latencies (us, from the scheduled send) of answered requests of `kind`
// scheduled in [from, to).
std::vector<double> latencies(const Workload& w, const LoadResult& r,
                              RequestKind kind, std::int64_t from,
                              std::int64_t to) {
  std::vector<double> out;
  for (std::size_t i = 0; i < r.sent; ++i) {
    const Outcome& o = r.outcomes[i];
    if (w.requests[i].kind == kind && o.answered() &&
        o.scheduled_ns >= from && o.scheduled_ns < to) {
      out.push_back(o.latency_us());
    }
  }
  return out;
}

// Round-trip times (us, from the actual send) of answered kQuery requests.
std::vector<double> round_trips(const Workload& w, const LoadResult& r) {
  std::vector<double> out;
  for (std::size_t i = 0; i < r.sent; ++i) {
    const Outcome& o = r.outcomes[i];
    if (w.requests[i].kind == RequestKind::kQuery && o.answered()) {
      out.push_back(static_cast<double>(o.received_ns - o.sent_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<double> late_us(const LoadResult& r) {
  std::vector<double> out;
  for (std::size_t i = 0; i < r.sent; ++i) {
    if (r.outcomes[i].sent_ns != 0) out.push_back(r.outcomes[i].late_us());
  }
  return out;
}

std::size_t answered(const LoadResult& r) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < r.sent; ++i) n += r.outcomes[i].answered();
  return n;
}

// Handler spans named `name` that started inside [from, to).
std::vector<double> span_micros(const std::vector<trace::Span>& spans,
                                std::string_view name, std::int64_t from,
                                std::int64_t to) {
  std::vector<double> out;
  for (const trace::Span& s : spans) {
    if (name == s.name && s.start_ns >= from && s.start_ns < to) {
      out.push_back(s.micros());
    }
  }
  return out;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------- lookup

// One prefix-shard backend: the `sm_notaryd --shard-prefix` shape.
struct Backend {
  sm::scan::ScanArchive slice;
  std::unique_ptr<sm::corpus::CorpusIndex> spine;
  std::unique_ptr<sm::notary::NotaryIndex> index;
  std::unique_ptr<sm::notary::NotaryService> service;
  std::unique_ptr<sm::netio::TcpServer> server;
};

// Router + two backends. Members are destroyed router server first,
// then the router (and its pool), then the backends.
struct Deployment {
  sm::corpus::KeyCountMap key_counts;
  std::array<Backend, 2> backends;
  std::unique_ptr<sm::notary::RouterService> router;
  std::unique_ptr<sm::netio::TcpServer> router_server;
};

std::unique_ptr<Deployment> build_deployment(const SurveyResult& survey,
                                             std::string& error) {
  using namespace sm;
  trace::Scope setup_span("lookup.setup");
  const scan::ScanArchive& full = survey.world->archive;
  auto d = std::make_unique<Deployment>();
  {
    trace::Scope span("corpus.key_counts");
    d->key_counts.reserve(full.certs().size());
    for (const scan::CertRecord& cert : full.certs()) {
      ++d->key_counts[cert.key_fingerprint];
    }
  }
  notary::RouterConfig router_config;
  for (std::size_t s = 0; s < d->backends.size(); ++s) {
    Backend& b = d->backends[s];
    const auto lo = static_cast<std::uint8_t>(s * 256 / d->backends.size());
    const auto hi =
        static_cast<std::uint8_t>((s + 1) * 256 / d->backends.size() - 1);
    {
      trace::Scope span("corpus.prefix_slice");
      b.slice = corpus::extract_prefix_slice(full, lo, hi);
    }
    {
      trace::Scope span("corpus.shard_spine");
      b.spine = std::make_unique<corpus::CorpusIndex>(
          b.slice, corpus::CorpusOptions{&survey.world->routing, nullptr});
    }
    {
      trace::Scope span("notary.shard_index_build");
      notary::NotaryIndexOptions options;
      options.key_counts = &d->key_counts;
      options.revocation_statuses = &survey.statuses;
      b.index = std::make_unique<notary::NotaryIndex>(*b.spine, options);
    }
    b.service = std::make_unique<notary::NotaryService>(
        *b.index, notary::NotaryServiceConfig{kCacheBytes});
    netio::ServerConfig config;
    config.workers = 1;
    b.server = std::make_unique<netio::TcpServer>(
        config, [&b](FrameType type, std::string_view payload,
                     std::string& out) {
          trace::Scope span("notary.handle", trace::request_id(payload));
          b.service->handle_into(type, payload, out);
        });
    if (!b.server->start(&error)) return nullptr;
    router_config.shards.push_back({{{"127.0.0.1", b.server->port()}}});
  }
  // One pooled connection per backend: the router has one worker, so a
  // second connection would only add an idle reader thread.
  router_config.pool.connections_per_backend = 1;
  d->router = std::make_unique<notary::RouterService>(std::move(router_config));
  netio::ServerConfig config;
  config.workers = 1;
  Deployment* raw = d.get();
  d->router_server = std::make_unique<netio::TcpServer>(
      config, [raw](FrameType type, std::string_view payload,
                    std::string& out) {
        trace::Scope span("notary.router", trace::request_id(payload));
        raw->router->handle_into(type, payload, out);
      });
  if (!d->router_server->start(&error)) return nullptr;
  return d;
}

struct PoolTotals {
  std::uint64_t requests = 0, timeouts = 0, reconnects = 0, errors = 0;
};

PoolTotals pool_totals(const sm::notary::RouterService& router) {
  PoolTotals t;
  const sm::netio::ClientPool& pool = router.pool();
  for (std::size_t b = 0; b < pool.backend_count(); ++b) {
    const sm::netio::BackendCounters c = pool.counters(b);
    t.requests += c.requests;
    t.timeouts += c.timeouts;
    t.reconnects += c.reconnects;
    t.errors += c.connect_errors + c.io_errors;
  }
  return t;
}

struct CacheTotals {
  std::uint64_t hits = 0, misses = 0, invalidations = 0;
};

CacheTotals cache_totals(const Deployment& d) {
  CacheTotals t;
  for (const Backend& b : d.backends) {
    const sm::notary::NotaryMetricsSnapshot m = b.service->metrics();
    t.hits += m.cache_hits;
    t.misses += m.cache_misses;
  }
  return t;
}

// Counts answers that differ from the oracle. Batch entries must each
// equal the single-query answer for their fingerprint.
std::size_t check_lookup(const Workload& w, const LoadResult& r,
                         const std::vector<Expected>& query,
                         const std::vector<Expected>& revocation) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < r.sent; ++i) {
    const Request& q = w.requests[i];
    const Outcome& o = r.outcomes[i];
    if (!o.answered()) {
      ++wrong;
      continue;
    }
    const Expected got{o.response, o.crc};
    switch (q.kind) {
      case RequestKind::kQuery:
        wrong += !(got == query[q.first]);
        break;
      case RequestKind::kRevocation:
        wrong += !(got == revocation[q.first]);
        break;
      case RequestKind::kBatch: {
        bool ok = o.response == FrameType::kBatchInfo &&
                  o.entry_count == q.count;
        for (std::uint32_t e = 0; ok && e < q.count; ++e) {
          const EntryOutcome& entry = r.entries[o.entry_first + e];
          ok = Expected{entry.status, entry.crc} ==
               query[w.batch_fps[q.first + e]];
        }
        wrong += !ok;
        break;
      }
    }
  }
  return wrong;
}

}  // namespace

Oracle build_oracle(const SurveyResult& survey) {
  using namespace sm;
  Oracle oracle;
  for (const scan::CertRecord& cert : survey.world->archive.certs()) {
    oracle.fingerprints.push_back(cert.fingerprint);
  }
  notary::NotaryIndexOptions options;
  options.revocation_statuses = &survey.statuses;
  const notary::NotaryIndex index(*survey.spine, options);
  notary::NotaryService service(index);
  expect_all(service, FrameType::kQuery, oracle.fingerprints, oracle.query);
  expect_all(service, FrameType::kRevocationQuery, oracle.fingerprints,
             oracle.revocation);
  return oracle;
}

void run_lookup_phase(const SurveyResult& survey, const Oracle& oracle,
                      const ServeConfig& config, Sheet& sheet) {
  using namespace sm;
  const std::vector<scan::CertFingerprint>& fps = oracle.fingerprints;

  // Set-up, three times: the median is setup_s.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int attempt = 0; attempt < 3; ++attempt) {
    d.reset();
    const std::int64_t start = now_ns();
    std::string error;
    d = build_deployment(survey, error);
    if (!d) {
      sheet.fail("lookup deployment did not start: " + error);
      return;
    }
    setup_s.push_back(seconds_since(start));
  }
  sheet.e2e("setup_s", median(setup_s), "s");
  sheet.note(format("setup: routed deployment built %zu times, %.3f / %.3f / "
                    "%.3f s",
                    setup_s.size(), setup_s[0], setup_s[1], setup_s[2]));

  const std::size_t connections = std::min<std::size_t>(4, config.threads);
  OpenLoopClient client(d->router_server->port(), connections);
  if (!client.ok()) {
    sheet.fail("generator could not connect to the router");
    return;
  }
  Picker picker(config.popularity, fps.size(), config.seed * 7919 + 1);
  std::size_t attempted = 0;
  std::size_t wrong = 0;
  const auto run = [&](const Workload& w, double rate) {
    LoadResult r = client.run(w.requests, rate, fps, w.batch_fps, kDrainMs);
    attempted += r.sent;
    wrong += check_lookup(w, r, oracle.query, oracle.revocation);
    return r;
  };

  // Warm the connections and the router's pool, then the fixed-rate window.
  run(make_requests(picker, static_cast<std::size_t>(kLookupRate / 4), true),
      kLookupRate);
  const double window_s = std::max(1.0, config.seconds * 0.3);
  const Workload fixed = make_requests(
      picker, static_cast<std::size_t>(kLookupRate * window_s), true);
  const CacheTotals cache_before = cache_totals(*d);
  const PoolTotals pool_before = pool_totals(*d->router);
  const netio::ServerCounters server_before = d->router_server->counters();
  const std::size_t wrong_before_fixed = wrong;
  const LoadResult steady = run(fixed, kLookupRate);
  const CacheTotals cache_after = cache_totals(*d);
  const PoolTotals pool_after = pool_totals(*d->router);
  const netio::ServerCounters server_after = d->router_server->counters();

  const auto all = std::numeric_limits<std::int64_t>::max();
  const Distribution single = distribution(
      latencies(fixed, steady, RequestKind::kQuery, 0, all));
  const Distribution batch = distribution(
      latencies(fixed, steady, RequestKind::kBatch, 0, all));
  const Distribution revocation = distribution(
      latencies(fixed, steady, RequestKind::kRevocation, 0, all));
  const Distribution rtt = distribution(round_trips(fixed, steady));
  const Distribution late = distribution(late_us(steady));
  const double single_p99 = sliced_percentile(
      latencies(fixed, steady, RequestKind::kQuery, 0, all), 99);
  // Batches are 5% of the mix, so their slices hold 200 samples, not 1,000.
  const double batch_p99 = sliced_percentile(
      latencies(fixed, steady, RequestKind::kBatch, 0, all), 99, 200);
  sheet.tail("lookup_p50_us", single.p50, "us");
  sheet.tail("lookup_p99_us", single_p99, "us");
  sheet.tail("batch_p99_us", batch_p99, "us");
  sheet.note(format("lookup window: %.0f req/s offered for %.1f s over %zu "
                    "connections to the router",
                    kLookupRate, window_s, connections));
  sheet.note(describe("  kQuery latency", "us", single) +
             format("; sliced p99 %.4g us", single_p99));
  sheet.note(describe("  kBatchQuery x32 latency", "us", batch) +
             format("; sliced p99 %.4g us", batch_p99));
  sheet.note(describe("  kRevocationQuery latency", "us", revocation));
  sheet.note(describe("  generator lateness", "us", late));

  // The ladder: bisect for the highest step the deployment keeps up with.
  // A step keeps up when every request is answered right and the median
  // latency of the whole step and of its last quarter stay within the
  // limit: below the knee both sit near the service time, above it the
  // backlog grows through the step and the last quarter's median climbs
  // far past the limit. Medians make the search robust to host stalls;
  // the p99 criterion gets a bisection of its own below that. Step 0 is
  // the fixed window.
  struct Step {
    bool keeps_up = false;
    bool p99_holds = false;
  };
  const auto judge = [&](const Workload& w, const LoadResult& r,
                         std::size_t wrong_before, double rate) {
    const std::int64_t span = r.outcomes.empty()
                                  ? 0
                                  : r.outcomes.back().scheduled_ns - r.start_ns;
    const std::vector<double> whole =
        latencies(w, r, RequestKind::kQuery, 0, all);
    const double p50 = median(whole);
    const double p99 = sliced_percentile(whole, 99, 500);
    const double tail_p50 = median(latencies(
        w, r, RequestKind::kQuery, r.start_ns + span * 3 / 4, all));
    Step step;
    step.keeps_up = wrong == wrong_before && answered(r) == r.sent &&
                    !whole.empty() && p50 <= kLatencyLimitUs &&
                    tail_p50 <= kLatencyLimitUs;
    step.p99_holds = step.keeps_up && p99 <= kLatencyLimitUs;
    sheet.note(format("  ladder %7.0f req/s: p50 %8.1f us, last-quarter p50 "
                      "%8.1f us, sliced p99 %8.1f us -> %s%s",
                      rate, p50, tail_p50, p99,
                      step.keeps_up ? "keeps up" : "falls behind",
                      step.p99_holds ? ", p99 holds" : ""));
    return step;
  };
  const double probe_s = std::max(0.5, config.seconds * 0.06);
  std::map<int, Step> probed;  // every step judged, by ladder index
  const auto probe = [&](int step) {
    const auto seen = probed.find(step);
    if (seen != probed.end()) return seen->second;
    const double rate = kLookupRate * std::pow(kLadderStep, step);
    const Workload w = make_requests(
        picker, static_cast<std::size_t>(rate * probe_s), true);
    const std::size_t wrong_before = wrong;
    return probed[step] = judge(w, run(w, rate), wrong_before, rate);
  };
  probed[0] = judge(fixed, steady, wrong_before_fixed, kLookupRate);
  // First the capacity: the highest step that keeps up.
  int lo = -kLadderDown - 1;  // highest step known to keep up
  int hi = kLadderUp + 1;     // lowest step known to fall behind
  (probed[0].keeps_up ? lo : hi) = 0;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    (probe(mid).keeps_up ? lo : hi) = mid;
  }
  // Then, below it, the highest step that also holds p99 <= the limit: a
  // second bisection on the p99 criterion, between the highest step
  // already seen to hold it and the lowest one above that seen to miss
  // it (at most the first step that falls behind).
  int p99_lo = -kLadderDown - 1;
  for (const auto& [step, verdict] : probed) {
    if (verdict.p99_holds && step <= lo) p99_lo = std::max(p99_lo, step);
  }
  int p99_hi = lo + 1;
  for (const auto& [step, verdict] : probed) {
    if (!verdict.p99_holds && step > p99_lo) p99_hi = std::min(p99_hi, step);
  }
  while (p99_hi - p99_lo > 1) {
    const int mid = p99_lo + (p99_hi - p99_lo) / 2;
    (probe(mid).p99_holds ? p99_lo : p99_hi) = mid;
  }
  // Below the ladder, report the step under its floor rather than 0.
  const double capacity = kLookupRate * std::pow(kLadderStep, lo);
  const double sustained = kLookupRate * std::pow(kLadderStep, p99_lo);
  sheet.tail("lookup_capacity_qps", capacity, "req/s");
  sheet.tail("lookup_sustained_qps", sustained, "req/s");
  sheet.note(format("lookup ladder (steps %.1f%% apart, %zu probed): keeps up "
                    "to %.0f req/s; holds p99 <= %.0f us up to %.0f req/s "
                    "(lookup_sustained_qps)",
                    (kLadderStep - 1) * 100, probed.size(), capacity,
                    kLatencyLimitUs, sustained));

  const PoolTotals pool_end = pool_totals(*d->router);
  d.reset();  // joins every server and pool thread before reading spans

  const std::vector<trace::Span> spans = trace::collect();
  const std::int64_t from = steady.start_ns;
  const std::int64_t to = steady.end_ns;
  const Distribution handle = distribution(span_micros(spans, "notary.handle", from, to));
  const Distribution router = distribution(span_micros(spans, "notary.router", from, to));
  std::vector<double> index_build;
  for (const trace::Span& s : spans) {
    if (std::string_view(s.name) == "notary.shard_index_build") {
      index_build.push_back(s.seconds());
    }
  }
  // Two shards per set-up: the per-set-up cost is twice the median shard.
  sheet.layer("notary.shard_index_build_s", 2 * median(index_build), "s");
  sheet.layer("notary.handle_us_p50", handle.p50, "us");
  sheet.layer("notary.handle_us_p99", handle.p99, "us");
  sheet.layer("notary.cache_hit_ratio",
              ratio(cache_after.hits - cache_before.hits,
                    cache_after.hits - cache_before.hits + cache_after.misses -
                        cache_before.misses),
              "ratio");
  sheet.layer("notary.router_us_p50", router.p50, "us");
  sheet.layer("notary.router_us_p99", router.p99, "us");
  sheet.layer("netio.wire_us_p50", router.count > 0 ? rtt.p50 - router.p50 : 0,
              "us");
  sheet.layer("netio.send_syscalls_per_resp",
              ratio(server_after.send_syscalls - server_before.send_syscalls,
                    server_after.frames_handled - server_before.frames_handled),
              "ratio");
  sheet.layer("netio.pool_calls",
              static_cast<double>(pool_after.requests - pool_before.requests),
              "count");
  sheet.layer("netio.pool_timeouts", static_cast<double>(pool_end.timeouts),
              "count");
  sheet.layer("netio.pool_reconnects",
              static_cast<double>(pool_end.reconnects), "count");
  const double wall = static_cast<double>(steady.end_ns - steady.start_ns) * 1e-9;
  sheet.layer("bench.offered_qps", kLookupRate, "req/s");
  sheet.layer("bench.completed_qps",
              static_cast<double>(answered(steady)) / wall, "req/s");
  sheet.layer("bench.gen_late_us_p99", late.p99, "us");
  sheet.layer("bench.cpu_util",
              steady.cpu_s / (wall * static_cast<double>(config.threads)),
              "ratio");
  if (pool_end.errors + pool_end.timeouts > 0) {
    sheet.note(format("router pool: %llu timeouts, %llu connection errors",
                      static_cast<unsigned long long>(pool_end.timeouts),
                      static_cast<unsigned long long>(pool_end.errors)));
  }

  sheet.attempted += attempted;
  sheet.failed += wrong;
  sheet.note(format("lookup checks: %zu requests, %zu wrong or unanswered",
                    attempted, wrong));
  if (wrong > 0) sheet.fail("lookup answers differ from the unsharded oracle");
}

// ---------------------------------------------------------------- ingest

namespace {

std::shared_ptr<const sm::notary::NotaryIndex> build_epoch_index(
    const sm::corpus::LiveSnapshot& snap, sm::util::ThreadPool* pool) {
  sm::notary::NotaryIndexOptions options;
  options.pool = pool;
  if (snap.key_counts) options.key_counts = snap.key_counts.get();
  if (snap.statuses) options.revocation_statuses = snap.statuses.get();
  return std::make_shared<const sm::notary::NotaryIndex>(*snap.spine, options);
}

}  // namespace

void run_ingest_phase(const SurveyResult& survey, const Oracle& oracle,
                      const ServeConfig& config, Sheet& sheet) {
  using namespace sm;
  const scan::ScanArchive& full = survey.world->archive;
  const net::RoutingHistory& routing = survey.world->routing;
  const std::size_t scans = full.scans().size();
  if (scans <= kHeldOutScans) {
    sheet.fail("the world has too few scans to hold eight out");
    return;
  }
  const std::size_t base_scans = scans - kHeldOutScans;
  const std::vector<scan::CertFingerprint>& fps = oracle.fingerprints;
  std::unordered_map<scan::CertFingerprint, std::uint32_t, scan::FingerprintHash>
      fp_index;
  fp_index.reserve(fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    fp_index.emplace(fps[i], static_cast<std::uint32_t>(i));
  }

  const std::int64_t setup_start = now_ns();
  std::vector<std::string> segments;
  for (std::size_t i = 0; i < kHeldOutScans; ++i) {
    std::ostringstream out;
    if (!scan::save_archive(corpus::extract_segment(full, base_scans + i,
                                                    base_scans + i + 1),
                            out)) {
      sheet.fail("a held-out scan did not serialize");
      return;
    }
    segments.push_back(std::move(out).str());
  }
  // Rebuilds run on their own pool of nproc - 1 threads (the appending
  // thread included), so the rebuild, the notary's worker and the
  // generator oversubscribe the processors by one thread, not by nproc.
  util::ThreadPool ingest_pool(std::max<std::size_t>(1, config.threads - 1));
  corpus::LiveCorpus live(corpus::extract_segment(full, 0, base_scans),
                          &routing, &ingest_pool, survey.statuses);
  notary::NotaryService service(build_epoch_index(*live.snapshot(), &ingest_pool),
                                notary::NotaryServiceConfig{kCacheBytes});
  // The load: a minute of requests, far more than the phase needs; the
  // stop flag ends it. Only certificates it queries need expected answers.
  Picker picker(config.popularity, fps.size(), config.seed * 104729 + 3);
  const Workload load =
      make_requests(picker, static_cast<std::size_t>(kIngestRate * 60), false);
  std::vector<bool> queried(fps.size());
  for (const Request& r : load.requests) queried[r.first] = true;
  // Epoch 0's answers; later epochs override the certificates they change.
  std::vector<Expected> expect_base;
  {
    notary::NotaryService oracle(service.index_snapshot());
    expect_all(oracle, FrameType::kQuery, fps, expect_base, &queried);
  }
  std::vector<std::unordered_map<std::uint32_t, Expected>> overrides(1);

  netio::ServerConfig server_config;
  server_config.workers = 1;
  netio::TcpServer server(server_config, [&service](FrameType type,
                                                    std::string_view payload,
                                                    std::string& out) {
    trace::Scope span("notary.live_handle", trace::request_id(payload));
    service.handle_into(type, payload, out);
  });
  std::string error;
  if (!server.start(&error)) {
    sheet.fail("live notary did not start: " + error);
    return;
  }
  const std::size_t connections = std::min<std::size_t>(4, config.threads);
  OpenLoopClient client(server.port(), connections);
  if (!client.ok()) {
    sheet.fail("generator could not connect to the live notary");
    return;
  }
  sheet.note(format("ingest setup: %zu base scans + %zu held-out segments, "
                    "oracles and live notary in %.2f s",
                    base_scans, segments.size(), seconds_since(setup_start)));

  std::atomic<bool> stop{false};
  LoadResult result;
  const notary::NotaryMetricsSnapshot metrics_before = service.metrics();
  std::thread generator([&] {
    result = client.run(load.requests, kIngestRate, fps, load.batch_fps,
                        kDrainMs, &stop);
  });

  const std::int64_t phase_start = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::vector<std::int64_t> publish_start(1, 0), publish_end(1, 0);
  std::vector<double> visible_s, append_s, index_s, publish_s, delta_certs;
  std::size_t appends_failed = 0;
  double oracle_s = 0;
  // [hand-off, publish returned] per segment: the latency window.
  std::vector<std::pair<std::int64_t, std::int64_t>> append_windows;
  const std::int64_t ingest_start = now_ns();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::int64_t start = now_ns();
    std::istringstream in(segments[i]);
    corpus::AppendResult appended;
    {
      trace::Scope span("corpus.append");
      appended = live.append_segment(in);
    }
    const std::int64_t appended_at = now_ns();
    if (!appended.ok) {
      ++appends_failed;
      sheet.fail("segment append failed: " + appended.error);
      break;
    }
    const auto snap = live.snapshot();
    std::shared_ptr<const notary::NotaryIndex> index;
    {
      trace::Scope span("notary.index_build");
      index = build_epoch_index(*snap, &ingest_pool);
    }
    const std::int64_t built_at = now_ns();
    {
      trace::Scope span("notary.publish");
      service.publish(index, snap->delta);
    }
    const std::int64_t end = now_ns();
    publish_start.push_back(built_at);
    publish_end.push_back(end);
    append_windows.emplace_back(start, end);
    visible_s.push_back(static_cast<double>(end - start) * 1e-9);
    append_s.push_back(static_cast<double>(appended_at - start) * 1e-9);
    index_s.push_back(static_cast<double>(built_at - appended_at) * 1e-9);
    publish_s.push_back(static_cast<double>(end - built_at) * 1e-9);
    delta_certs.push_back(static_cast<double>(snap->delta.size()));

    // This epoch's answers for the certificates it changed, computed
    // between swaps (outside the latency window) on the rebuild pool.
    const std::int64_t oracle_start = now_ns();
    notary::NotaryService oracle(index);
    const auto& certs = snap->archive->certs();
    std::vector<std::uint32_t> changed;
    for (const scan::CertId id : snap->delta) {
      const std::uint32_t i = fp_index.at(certs[id].fingerprint);
      if (queried[i]) changed.push_back(i);
    }
    std::vector<std::pair<std::uint32_t, Expected>> answers(changed.size());
    ingest_pool.parallel_for(
        answers.size(), 1024, [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            answers[k] = {changed[k],
                          expect(oracle, FrameType::kQuery, fps[changed[k]])};
          }
        });
    overrides.emplace_back(answers.begin(), answers.end());
    oracle_s += seconds_since(oracle_start);
  }
  const std::int64_t ingest_end = now_ns();
  while (seconds_since(phase_start) < std::max(1.0, config.seconds * 0.3) ||
         seconds_since(ingest_end) < 0.3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  generator.join();
  const std::int64_t joined_at = now_ns();
  const notary::NotaryMetricsSnapshot metrics_after = service.metrics();
  const netio::ServerCounters counters = server.counters();

  // Check every answer against the epochs that could have served it:
  // from the last epoch fully published before the send to the last one
  // whose publish began before the reply arrived.
  const auto expected_at = [&](std::uint32_t fp, std::size_t epoch) {
    for (std::size_t e = epoch; e >= 1; --e) {
      const auto it = overrides[e].find(fp);
      if (it != overrides[e].end()) return it->second;
    }
    return expect_base[fp];
  };
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < result.sent; ++i) {
    const Outcome& o = result.outcomes[i];
    if (!o.answered()) {
      ++wrong;
      continue;
    }
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t e = 1; e < publish_end.size(); ++e) {
      if (publish_end[e] <= o.sent_ns) lo = e;
      if (publish_start[e] <= o.received_ns) hi = e;
    }
    bool ok = false;
    for (std::size_t e = lo; e <= hi && !ok; ++e) {
      ok = expected_at(load.requests[i].first, e) == Expected{o.response, o.crc};
    }
    wrong += !ok;
  }
  // The sweep: after the last epoch every certificate must answer as the
  // oracle — a cold build over the full archive — does. A certificate no
  // scan observed cannot have been ingested and must be unknown.
  std::atomic<std::size_t> sweep_wrong{0};
  util::ThreadPool::global().parallel_for(
      fps.size(), 4096, [&](std::size_t begin, std::size_t end) {
        std::size_t local = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Expected got = expect(service, FrameType::kQuery, fps[i]);
          local += survey.spine->stats(static_cast<scan::CertId>(i)).scans_seen > 0
                       ? !(got == oracle.query[i])
                       : got.type != FrameType::kNotFound;
        }
        sweep_wrong.fetch_add(local);
      });
  server.shutdown();
  sheet.note(format("ingest timeline (s): appends %.2f (epoch oracles %.2f "
                    "of it), load stopped %.2f, checks and sweep %.2f",
                    static_cast<double>(ingest_end - ingest_start) * 1e-9,
                    oracle_s,
                    static_cast<double>(joined_at - ingest_start) * 1e-9,
                    seconds_since(joined_at)));

  std::vector<double> during_us;
  for (const auto& [from, to] : append_windows) {
    const std::vector<double> part =
        latencies(load, result, RequestKind::kQuery, from, to);
    during_us.insert(during_us.end(), part.begin(), part.end());
  }
  const Distribution during = distribution(during_us);
  const Distribution rtt = distribution(round_trips(load, result));
  const Distribution late = distribution(late_us(result));
  const double during_p99 = sliced_percentile(during_us, 99);
  sheet.e2e("ingest_visible_s", median(visible_s), "s");
  sheet.tail("ingest_lookup_p50_us", during.p50, "us");
  sheet.tail("ingest_lookup_p99_us", during_p99, "us");
  sheet.note(format("ingest: %zu segments appended under %.0f req/s of %s "
                    "kQuery load",
                    visible_s.size(), kIngestRate,
                    config.popularity == Popularity::kZipf ? "Zipf(0.99)"
                                                           : "uniform"));
  sheet.note(describe("  segment visible (append -> publish)", "s",
                      distribution(visible_s)));
  sheet.note(format("  delta per segment: median %.0f certificates",
                    median(delta_certs)));
  sheet.note(describe("  kQuery latency during ingestion", "us", during) +
             format("; sliced p99 %.4g us", during_p99));
  sheet.note(describe("  generator lateness", "us", late));

  const std::vector<trace::Span> spans = trace::collect();
  std::vector<double> handle_us;
  for (const auto& [from, to] : append_windows) {
    const std::vector<double> part =
        span_micros(spans, "notary.live_handle", from, to);
    handle_us.insert(handle_us.end(), part.begin(), part.end());
  }
  const Distribution handle = distribution(handle_us);
  sheet.layer("corpus.append_s", median(append_s), "s");
  sheet.layer("corpus.delta_certs", median(delta_certs), "count");
  sheet.layer("notary.index_build_s", median(index_s), "s");
  sheet.layer("notary.publish_s", median(publish_s), "s");
  sheet.layer("notary.cache_invalidations",
              static_cast<double>(metrics_after.cache_invalidations -
                                  metrics_before.cache_invalidations),
              "count");
  sheet.layer("ingest.handle_us_p50", handle.p50, "us");
  sheet.layer("ingest.handle_us_p99", handle.p99, "us");
  sheet.layer("ingest.cache_hit_ratio",
              ratio(metrics_after.cache_hits - metrics_before.cache_hits,
                    metrics_after.cache_hits - metrics_before.cache_hits +
                        metrics_after.cache_misses - metrics_before.cache_misses),
              "ratio");
  sheet.layer("ingest.wire_us_p50", handle.count > 0 ? rtt.p50 - handle.p50 : 0,
              "us");
  sheet.layer("ingest.send_syscalls_per_resp",
              ratio(counters.send_syscalls, counters.frames_handled), "ratio");
  const double wall = static_cast<double>(result.end_ns - result.start_ns) * 1e-9;
  sheet.layer("ingest.completed_qps",
              static_cast<double>(answered(result)) / wall, "req/s");
  sheet.layer("ingest.gen_late_us_p99", late.p99, "us");
  sheet.layer("ingest.cpu_util",
              result.cpu_s / (wall * static_cast<double>(config.threads)),
              "ratio");

  const std::size_t sweep_bad = sweep_wrong.load();
  sheet.attempted += result.sent + kHeldOutScans + fps.size();
  sheet.failed += wrong + appends_failed + sweep_bad;
  sheet.note(format("ingest checks: %zu requests, %zu wrong or unanswered; "
                    "sweep of %zu certificates vs. cold build: %zu differ",
                    result.sent, wrong, fps.size(), sweep_bad));
  if (wrong > 0) sheet.fail("ingest answers differ from the epoch oracle");
  if (sweep_bad > 0) sheet.fail("live notary differs from a cold build");
}

}  // namespace perfbench
