#include "survey.h"

#include <optional>
#include <sstream>

#include "analysis/dataset.h"
#include "linking/linker.h"
#include "report/report.h"
#include "simworld/world_io.h"
#include "stats.h"
#include "trace.h"
#include "tracking/tracker.h"

namespace perfbench {
namespace {

// FNV-1a over whatever the survey produced.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void text(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Runs `fn` inside a span named `name` and records its wall and process
// CPU time.
template <typename Fn>
void stage(SurveyResult& result, const char* name, Fn&& fn) {
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  {
    trace::Scope scope(name);
    fn();
  }
  result.wall_s[name] += static_cast<double>(now_ns() - start) * 1e-9;
  result.cpu_s[name] += process_cpu_s() - cpu_start;
}

}  // namespace

sm::simworld::WorldConfig survey_world(std::uint64_t seed,
                                       std::size_t devices) {
  sm::simworld::WorldConfig config = sm::simworld::WorldConfig::paper();
  config.seed = seed;
  config.device_count = devices;
  config.website_count = devices * 17 / 50;
  return config;
}

SurveyResult run_survey(const sm::simworld::WorldConfig& config) {
  using namespace sm;
  SurveyResult result;
  Digest digest;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  {
    std::optional<trace::Scope> survey_span;
    survey_span.emplace("survey");
    std::string bundle;
    {
      std::optional<simworld::WorldResult> simulated;
      stage(result, "simworld.run",
            [&] { simulated.emplace(simworld::World(config).run()); });
      result.verify = simulated->verify_stats;
      stage(result, "scan.save", [&] {
        std::ostringstream out;
        simworld::save_world_bundle(*simulated, out);
        bundle = std::move(out).str();
      });
      result.statuses = std::move(simulated->revocation.statuses);
      stage(result, "simworld.release", [&] { simulated.reset(); });
    }
    result.bundle_mb = static_cast<double>(bundle.size()) / (1 << 20);
    stage(result, "scan.load", [&] {
      std::istringstream in(std::move(bundle));
      auto loaded = simworld::load_world_bundle(in);
      if (loaded.has_value()) {
        result.world =
            std::make_unique<simworld::WorldResult>(std::move(*loaded));
      }
    });
    if (!result.world) {
      result.error = "the saved world bundle did not load back";
      return result;
    }
    const simworld::WorldResult& world = *result.world;
    stage(result, "corpus.spine", [&] {
      result.spine = std::make_unique<corpus::CorpusIndex>(
          world.archive, corpus::CorpusOptions{&world.routing, nullptr});
    });
    const analysis::DatasetIndex index(*result.spine);

    std::optional<linking::Linker> linker;
    std::vector<linking::FieldResult> fields;
    linking::IterativeResult linked;
    stage(result, "linking.build", [&] { linker.emplace(index); });
    stage(result, "linking.fields",
          [&] { fields = linker->evaluate_all_fields(); });
    stage(result, "linking.iterative",
          [&] { linked = linker->link_iteratively(); });

    std::optional<tracking::DeviceTracker> tracker;
    tracking::TrackableSummary summary;
    tracking::MovementStats movement;
    tracking::ReassignmentStats reassignment;
    stage(result, "tracking.build", [&] {
      tracker.emplace(index, *linker, linked, world.as_db);
    });
    stage(result, "tracking.analyses", [&] {
      summary = tracker->summary();
      movement = tracker->movement();
      reassignment = tracker->reassignment();
    });

    std::string report_text;
    stage(result, "report.render", [&] {
      report::ReportOptions options;
      options.revocation_statuses = &result.statuses;
      report_text = report::render_report(index, world.as_db, options);
    });
    result.seconds = static_cast<double>(now_ns() - start) * 1e-9;
    result.cpu_seconds = process_cpu_s() - cpu_start;
    survey_span.reset();

    // Outside the timed pass: score against ground truth and digest.
    const linking::TruthScore truth = linker->score_against_truth(linked);
    result.precision = truth.precision();
    result.recall = truth.recall();
    result.linked_certs = linked.linked_certs;

    digest.u64(world.archive.certs().size());
    digest.u64(world.archive.observation_count());
    digest.text(report_text);
    for (const linking::FieldResult& field : fields) {
      digest.u64(static_cast<std::uint64_t>(field.feature));
      digest.u64(field.total_linked);
      digest.u64(field.uniquely_linked);
      digest.u64(field.groups.size());
    }
    for (const linking::LinkedGroup& group : linked.groups) {
      digest.u64(static_cast<std::uint64_t>(group.feature));
      digest.bytes(group.certs.data(),
                   group.certs.size() * sizeof(scan::CertId));
    }
    digest.u64(truth.linked_pairs);
    digest.u64(truth.correct_pairs);
    digest.u64(truth.possible_pairs);
    digest.u64(summary.trackable_without_linking);
    digest.u64(summary.trackable_with_linking);
    digest.u64(movement.tracked_devices);
    digest.u64(movement.devices_with_as_change);
    digest.u64(movement.total_as_transitions);
    digest.u64(movement.max_moves);
    digest.u64(movement.devices_crossing_countries);
    for (const tracking::BulkTransfer& t : movement.bulk_transfers) {
      digest.u64(t.scan);
      digest.u64(t.from);
      digest.u64(t.to);
      digest.u64(t.devices);
    }
    for (const tracking::AsReassignment& as : reassignment.per_as) {
      digest.u64(as.asn);
      digest.u64(as.tracked_devices);
      digest.u64(as.static_devices);
      digest.u64(as.always_changing_devices);
    }
    digest.u64(reassignment.ases_90pct_static);
  }
  result.digest = digest.value();
  return result;
}

}  // namespace perfbench
