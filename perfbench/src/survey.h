// The §4–§7 survey pipeline as one timed pass: simulate a world, save it
// as a world bundle, load it back, build the corpus spine, link, track and
// render the report — every stage a call into the library's public API,
// each wrapped in a trace span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "pki/verifier.h"
#include "simworld/world.h"

namespace perfbench {

/// The world the survey simulates: `devices` end-user devices and
/// devices/3 websites (the default world's ratio) over the default
/// 107-scan schedule, seeded by the workload seed.
sm::simworld::WorldConfig survey_world(std::uint64_t seed, std::size_t devices);

struct SurveyResult {
  /// The world as loaded back from the saved bundle. Heap-held because
  /// the spine borrows its archive and routing history.
  std::unique_ptr<sm::simworld::WorldResult> world;
  /// Revocation statuses from the simulation (bundles do not carry them).
  sm::corpus::RevocationStatusMap statuses;
  /// The corpus spine over `world` (declared after it, destroyed first).
  std::unique_ptr<sm::corpus::CorpusIndex> spine;

  double seconds = 0;      ///< wall time of the whole pass
  double cpu_seconds = 0;  ///< process CPU time of the whole pass
  /// Wall and process CPU seconds per stage (keyed by span name).
  std::map<std::string, double> wall_s;
  std::map<std::string, double> cpu_s;
  sm::pki::BatchVerifyStats verify;
  double bundle_mb = 0;
  std::uint64_t linked_certs = 0;
  double precision = 0;  ///< iterative linking vs. simulator ground truth
  double recall = 0;
  /// FNV-1a digest of the report text and the linking and tracking
  /// outputs; identical at every thread count and on every pass.
  std::uint64_t digest = 0;
  /// Empty when the pass completed; otherwise what went wrong.
  std::string error;
};

/// Runs one survey pass. The world and spine are kept for the serving
/// phases; everything else is released before returning.
SurveyResult run_survey(const sm::simworld::WorldConfig& config);

}  // namespace perfbench
