// sm_perfbench — one run of the end-to-end benchmark.
//
//   sm_perfbench --workload uniform|zipf --seed N --seconds S --trace 0|1
//                [--trace-out trace.json]
//
// A run is the paper's whole path on one world: the §4–§7 survey
// pass (simulate → save → load → spine → link → track → report), then
// the §8 notary serving it through a router (lookup phase), then the
// notary ingesting the world's last eight scans under load (ingest
// phase). The workload picks the popularity of the certificates queried.
// The last line of stdout is the JSON result; with --trace 1 it carries
// the per-layer metrics instead of the end-to-end ones. The run uses
// nproc threads: the CPUs in the process's affinity mask.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "serve.h"
#include "stats.h"
#include "survey.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;

constexpr std::size_t kDevices = 50'000;
// The surveyed and served world is always the default world's seed: the
// schedule generator draws the scan cadence from the seed, so other seeds
// give 90-107 scans and +-15% observations, a spread in input size that
// would swamp run-to-run noise. The workload seed drives everything else:
// the thread-check world, the query streams and the popularity ranking.
constexpr std::uint64_t kWorldSeed = 42;
// The thread-count check world: small enough to survey three times.
constexpr std::size_t kCheckDevices = 1'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sm_perfbench: %s\nusage: sm_perfbench --workload "
               "uniform|zipf --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (*value < '0' || *value > '9' || *end != '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64("--seed", value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64("--seconds", value));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(parse_u64("--trace", value));
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "uniform" && args.workload != "zipf") {
    usage("--workload must be uniform or zipf");
  }
  if (args.seconds < 1) usage("--seconds must be at least 1");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  return args;
}

// The CPUs this process may run on (sched_getaffinity), at least 1.
std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_json(const Sheet& sheet, bool traced) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              sheet.correct ? "true" : "false",
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed));
  const auto& metrics = traced ? sheet.per_layer : sheet.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::size_t threads = affinity_cpus();
  sm::util::ThreadPool::set_global_threads(threads);
  trace::set_enabled(args.trace == 1);
  const std::int64_t run_start = now_ns();

  Sheet sheet;
  // Wall-clock seconds since the start, per phase boundary.
  std::string timeline = "timeline (s):";
  const auto mark = [&](const char* phase) {
    timeline += format(" %s %.1f;", phase,
                       static_cast<double>(now_ns() - run_start) * 1e-9);
  };
  std::printf("workload %s, seed %llu, %g s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("host: nproc %zu, cpu \"%s\", compiler %s, build %s\n", threads,
              cpu_model().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  // Thread-count identity: the same digest on two passes at nproc threads
  // and one at a single thread, on a small world of the same seed.
  {
    const auto config = survey_world(args.seed, kCheckDevices);
    const std::uint64_t first = run_survey(config).digest;
    const std::uint64_t second = run_survey(config).digest;
    sm::util::ThreadPool::set_global_threads(1);
    const std::uint64_t single = run_survey(config).digest;
    sm::util::ThreadPool::set_global_threads(threads);
    sheet.attempted += 3;
    sheet.note(format("thread check (%zu devices): digests %016llx %016llx "
                      "(nproc) %016llx (1 thread)",
                      kCheckDevices, static_cast<unsigned long long>(first),
                      static_cast<unsigned long long>(second),
                      static_cast<unsigned long long>(single)));
    if (first != second || first != single) {
      sheet.failed += 1;
      sheet.fail("survey outputs differ between passes or thread counts");
    }
  }
  mark("check");

  ServeConfig serve;
  serve.popularity =
      args.workload == "zipf" ? Popularity::kZipf : Popularity::kUniform;
  serve.seed = args.seed;
  serve.seconds = args.seconds;
  serve.threads = threads;
  {
    SurveyResult survey = run_survey(survey_world(kWorldSeed, kDevices));
    sheet.attempted += 1;
    if (!survey.error.empty()) {
      sheet.failed += 1;
      sheet.fail("survey: " + survey.error);
    } else {
      const sm::scan::ScanArchive& archive = survey.world->archive;
      sheet.note(format("survey: %zu devices, %zu certs, %zu observations, %zu "
                        "scans in %.2f s wall, %.2f s cpu (digest %016llx)",
                        kDevices, archive.certs().size(),
                        archive.observation_count(), archive.scans().size(),
                        survey.seconds, survey.cpu_seconds,
                        static_cast<unsigned long long>(survey.digest)));
      sheet.e2e("survey_cpu_s", survey.cpu_seconds, "s");
      sheet.tail("survey_s", survey.seconds, "s");
      sheet.e2e("link_precision", survey.precision, "ratio");
      sheet.e2e("link_recall", survey.recall, "ratio");
      double stages = 0;
      for (const auto& [name, seconds] : survey.wall_s) {
        stages += seconds;
        sheet.note(format("  %-18s %7.3f s wall, %7.3f s cpu", name.c_str(),
                          seconds, survey.cpu_s[name]));
      }
      const auto w = [&](const char* name) { return survey.wall_s[name]; };
      const auto c = [&](const char* name) { return survey.cpu_s[name]; };
      const double checks = static_cast<double>(survey.verify.sig_checks);
      const double hits = static_cast<double>(survey.verify.sig_cache_hits);
      sheet.layer("simworld.run_s", w("simworld.run"), "s");
      sheet.layer("simworld.run_cpu_s", c("simworld.run"), "s");
      sheet.layer("pki.sig_checks", checks, "count");
      sheet.layer("pki.memo_hit_ratio",
                  checks + hits > 0 ? hits / (checks + hits) : 0, "ratio");
      sheet.layer("scan.save_s", w("scan.save"), "s");
      sheet.layer("scan.load_s", w("scan.load"), "s");
      sheet.layer("scan.bundle_mb", survey.bundle_mb, "MB");
      sheet.layer("corpus.spine_s", w("corpus.spine"), "s");
      sheet.layer("corpus.spine_cpu_s", c("corpus.spine"), "s");
      sheet.layer("linking.build_s", w("linking.build"), "s");
      sheet.layer("linking.fields_s", w("linking.fields"), "s");
      sheet.layer("linking.iterative_s", w("linking.iterative"), "s");
      sheet.layer("linking.cpu_s", c("linking.build") + c("linking.fields") +
                                       c("linking.iterative"),
                  "s");
      sheet.layer("linking.linked_certs",
                  static_cast<double>(survey.linked_certs), "count");
      sheet.layer("tracking.build_s", w("tracking.build"), "s");
      sheet.layer("tracking.analyses_s", w("tracking.analyses"), "s");
      sheet.layer("report.render_s", w("report.render"), "s");
      sheet.layer("survey.unaccounted_s", survey.seconds - stages, "s");
      sheet.note(format("  stages account for %.3f of %.3f s (slack %.3f s)",
                        stages, survey.seconds, survey.seconds - stages));

      mark("survey");
      const std::int64_t oracle_start = now_ns();
      const Oracle oracle = build_oracle(survey);
      sheet.note(format("oracle: %zu certificates x 2 request types in %.2f s",
                        oracle.fingerprints.size(),
                        static_cast<double>(now_ns() - oracle_start) * 1e-9));
      mark("oracle");
      run_lookup_phase(survey, oracle, serve, sheet);
      mark("lookup");
      run_ingest_phase(survey, oracle, serve, sheet);
      mark("ingest");
    }
  }
  mark("released");

  sheet.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace == 1) {
    const std::vector<trace::Span> spans = trace::collect();
    const double span_cost_ns = trace::measure_span_cost_ns();
    const double run_s = static_cast<double>(now_ns() - run_start) * 1e-9;
    sheet.layer("trace.spans", static_cast<double>(spans.size()), "count");
    sheet.layer("trace.span_cost_ns", span_cost_ns, "ns");
    // Recording cost as a share of the run's CPU capacity.
    sheet.layer("trace.overhead_pct",
                100.0 * static_cast<double>(spans.size()) * span_cost_ns *
                    1e-9 / (run_s * static_cast<double>(threads)),
                "%");
    for (const Sheet::Metric& m : sheet.end_to_end) {
      sheet.layer("traced." + m.name, m.value, m.unit);
    }
    for (const Sheet::Metric& m : sheet.tails) {
      sheet.layer("tail." + m.name, m.value, m.unit);
    }
    if (!args.trace_out.empty()) {
      if (trace::write_chrome_trace(spans, args.trace_out)) {
        sheet.note(format("trace: %zu spans written to %s", spans.size(),
                          args.trace_out.c_str()));
      } else {
        sheet.fail("could not write the trace to " + args.trace_out);
      }
    }
  }

  mark("end");
  sheet.note(timeline);
  for (const std::string& line : sheet.notes) std::printf("%s\n", line.c_str());
  std::printf("end-to-end:");
  for (const Sheet::Metric& m : sheet.end_to_end) {
    std::printf(" %s=%.6g %s;", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("\nnot gated:");
  for (const Sheet::Metric& m : sheet.tails) {
    std::printf(" %s=%.6g %s;", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(" fail_ratio=%.6g ratio (%llu / %llu);\n",
              sheet.attempted ? static_cast<double>(sheet.failed) /
                                    static_cast<double>(sheet.attempted)
                              : 0.0,
              static_cast<unsigned long long>(sheet.failed),
              static_cast<unsigned long long>(sheet.attempted));
  print_json(sheet, args.trace == 1);
  return sheet.correct ? 0 : 1;
}
