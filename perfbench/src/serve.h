// The §8 notary phases of a run, both over the world the survey pass
// produced and both driven by the open-loop generator over loopback TCP:
//
//  * lookup: a routed deployment — RouterService in front of two
//    prefix-shard NotaryService backends — under a 90% kQuery / 5%
//    kRevocationQuery / 5% kBatchQuery x32 mix at a fixed rate, then an
//    offered-rate ladder for the highest rate that holds p99 <= 1 ms;
//  * ingest: one live NotaryService over the world minus its last eight
//    scans, which are appended one at a time (LiveCorpus append, index
//    rebuild, publish) while single kQuery load runs at a fixed rate.
//
// Every response is checked against an unsharded, cache-off oracle and
// the live notary is swept against a cold build after the last epoch.
#pragma once

#include <cstdint>
#include <vector>

#include "netio/frame.h"
#include "stats.h"
#include "survey.h"

namespace perfbench {

enum class Popularity {
  kUniform,  ///< every certificate equally likely
  kZipf,     ///< Zipf(0.99) over a seeded ranking of the certificates
};

struct ServeConfig {
  Popularity popularity = Popularity::kUniform;
  std::uint64_t seed = 1;
  double seconds = 10;      ///< measuring budget shared by both phases
  std::size_t threads = 4;  ///< nproc: bounds workers + generator
};

/// The response a request must get: frame type and payload CRC32.
struct Expected {
  sm::netio::FrameType type = sm::netio::FrameType::kError;
  std::uint32_t crc = 0;
  bool operator==(const Expected&) const = default;
};

/// The answers of an unsharded, cache-off NotaryService over the survey's
/// spine (with the simulation's revocation statuses) to every certificate
/// of the archive, indexed like archive.certs().
struct Oracle {
  std::vector<sm::scan::CertFingerprint> fingerprints;
  std::vector<Expected> query;       ///< kQuery
  std::vector<Expected> revocation;  ///< kRevocationQuery
};

Oracle build_oracle(const SurveyResult& survey);

/// Appends the lookup phase's metrics to `sheet` (end-to-end and
/// per-layer; span-derived ones are 0 unless tracing is enabled).
void run_lookup_phase(const SurveyResult& survey, const Oracle& oracle,
                      const ServeConfig& config, Sheet& sheet);

/// Appends the ingest phase's metrics to `sheet`.
void run_ingest_phase(const SurveyResult& survey, const Oracle& oracle,
                      const ServeConfig& config, Sheet& sheet);

}  // namespace perfbench
