// CorpusIndex — the columnar spine every corpus consumer shares.
//
// The paper's whole pipeline is downstream of one logical table
// (certificate x scan x IP x AS): §5 population analysis reads per-cert
// stats, §6 linking reads per-cert observation lists and their origin
// ASes, §7 tracking reads per-cert (scan, ip) timelines, and the §8
// notary reads all of the above. Before this module existed each layer
// re-derived that table from the raw ScanArchive on its own — four
// independent cert→observation CSR builds and four rounds of IP→AS
// resolution per survey. The spine is built exactly once per archive:
//
//   offsets_   cert id -> [lo, hi) row into the flat columns (CSR)
//   obs_       {scan, ip} per observation, cert-major, sorted by scan
//              (and by intra-scan position within a scan) — the order the
//              archive itself stores observations in
//   obs_asn_   origin AS per observation, resolved through the routing
//              snapshot in effect at that observation's scan start
//              (0 = unroutable or no routing history supplied)
//   stats_     the derived per-certificate row (scans seen, first/last
//              scan, unique-IP slots, min/max IPs per scan, distinct
//              IPs, /24s and ASes, majority AS)
//   keys_      each cert's SPKI key fingerprint, contiguous
//   key_degree_  certificates in the archive sharing each cert's SPKI key
//              (the Figure 6 key-sharing degree)
//
// A live corpus grows by appending scans, so a spine can also be built by
// *extending* the spine of an earlier epoch: the previous rows and their
// ASNs are copied, only the new observations are resolved, stats are
// recomputed only for certificates the new scans observe, and the key
// degree changes only for holders of keys the new certificates carry. The
// cold build is the same code extending an empty spine.
//
// Construction runs on a util::ThreadPool (the process-global pool when
// null) and is deterministic: the CSR layout is defined by archive order
// alone, and the parallel passes (row copy + ASN resolution + per-cert
// stats, key degrees) write index-addressed slots, so every column is
// bit-identical at any thread count and equal to a cold build whether or
// not it extended a prefix. After construction the index is immutable;
// all accessors are zero-copy spans safe to read from any number of
// threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/route_table.h"
#include "scan/archive.h"
#include "util/thread_pool.h"

namespace sm::corpus {

/// Derived per-certificate statistics (the paper's §5 metrics; consumed
/// by analysis, linking, and tracking).
struct CertStats {
  std::uint32_t scans_seen = 0;  ///< scans with >= 1 observation
  std::uint32_t first_scan = 0;
  std::uint32_t last_scan = 0;
  /// Distinct IPs over all observations.
  std::uint32_t distinct_ips = 0;
  /// Sum over scans of the number of *unique* IPs advertising the cert.
  std::uint64_t total_ip_scan_slots = 0;
  std::uint32_t max_ips_in_scan = 0;
  std::uint32_t min_ips_in_scan = 0;
  /// Distinct /24 prefixes among those IPs.
  std::uint32_t distinct_slash24s = 0;
  /// Distinct origin ASes over all observations, ASN 0 (unroutable)
  /// included; 0 when built without routing.
  std::uint32_t distinct_as_count = 0;
  /// The AS hosting this certificate most often (observation-weighted;
  /// ties break toward the smallest AS number).
  net::Asn majority_as = 0;
  /// Some observation resolved to ASN 0 (set only when built with routing).
  bool unroutable_seen = false;

  /// Distinct ASes excluding the unroutable ASN 0.
  std::uint32_t routed_as_count() const {
    return distinct_as_count - (unroutable_seen ? 1 : 0);
  }

  /// Average unique IPs advertising the certificate per scan where seen
  /// (the paper's Figure 7 metric). 0 when never observed.
  double avg_ips_per_scan() const {
    return scans_seen == 0 ? 0.0
                           : static_cast<double>(total_ip_scan_slots) /
                                 static_cast<double>(scans_seen);
  }
};

/// One flattened observation: which scan, which IP. The ground-truth
/// device id stays in the archive (only the linker's truth scoring wants
/// it, via first_device()).
struct Obs {
  std::uint32_t scan = 0;
  std::uint32_t ip = 0;
};

/// Optional inputs for CorpusIndex construction.
struct CorpusOptions {
  /// Enables IP→AS resolution (each observation resolved through the
  /// snapshot in effect at its scan's start). Without it the ASN column
  /// is all zeros and distinct_as_count/majority_as stay 0.
  const net::RoutingHistory* routing = nullptr;
  /// Pool for the parallel build; null = the process-global pool.
  util::ThreadPool* pool = nullptr;
};

/// The immutable spine. Borrows `archive` (and `routing` when supplied)
/// for its lifetime.
class CorpusIndex {
 public:
  /// The cold build: extends an empty spine.
  explicit CorpusIndex(const scan::ScanArchive& archive,
                       const CorpusOptions& options = {});

  /// Extends `prefix`, a spine over an earlier epoch of the same corpus:
  /// `archive` must begin with prefix.archive()'s certificates (same ids)
  /// and scans (same observations), and `options.routing` must be the
  /// prefix's. The result is column-for-column identical to a cold build
  /// of `archive`. `prefix` is only read during construction. Throws
  /// std::invalid_argument when `archive` cannot extend `prefix`.
  CorpusIndex(const scan::ScanArchive& archive, const CorpusIndex& prefix,
              const CorpusOptions& options = {});

  CorpusIndex(const CorpusIndex&) = delete;
  CorpusIndex& operator=(const CorpusIndex&) = delete;

  const scan::ScanArchive& archive() const { return *archive_; }
  bool has_routing() const { return routing_ != nullptr; }

  std::size_t cert_count() const { return stats_.size(); }
  std::size_t scan_count() const { return archive_->scans().size(); }
  std::size_t observation_count() const { return obs_.size(); }

  /// All observations of certificate `id`, ordered by (scan, position in
  /// scan). Zero-copy; empty for interned-but-never-observed certs.
  std::span<const Obs> observations(scan::CertId id) const {
    return {obs_.data() + offsets_[id],
            obs_.data() + offsets_[id + 1]};
  }

  /// The origin-AS column parallel to observations(id): asns(id)[i] is
  /// the resolved AS of observations(id)[i] (0 = unroutable).
  std::span<const net::Asn> asns(scan::CertId id) const {
    return {obs_asn_.data() + offsets_[id],
            obs_asn_.data() + offsets_[id + 1]};
  }

  /// The derived stats row for certificate `id`.
  const CertStats& stats(scan::CertId id) const { return stats_[id]; }
  const std::vector<CertStats>& all_stats() const { return stats_; }

  /// Ground-truth device of the certificate's first observation
  /// (simulator-assigned; scan::kNoDevice when never observed).
  scan::DeviceId first_device(scan::CertId id) const {
    return first_device_[id];
  }

  /// Certificates in the archive holding the same SPKI key as `id` (>= 1,
  /// interned-but-never-observed certificates included).
  std::uint32_t key_degree(scan::CertId id) const { return key_degree_[id]; }

  /// Lifetime in days, computed the paper's way (1 day when seen once).
  double lifetime_days(scan::CertId id) const;

  /// Ad-hoc resolution: the origin AS of `ip` at scan `scan_index`
  /// (0 when unroutable). Per-observation consumers should read the
  /// precomputed asns() column instead.
  net::Asn as_of(std::size_t scan_index, std::uint32_t ip) const;

 private:
  /// The one build path: extends `prefix`, or an empty spine when null.
  void build(const CorpusIndex* prefix, util::ThreadPool& pool);
  void build_key_degrees(const CorpusIndex* prefix, util::ThreadPool& pool);

  const scan::ScanArchive* archive_;
  const net::RoutingHistory* routing_;
  std::vector<const net::RouteTable*> scan_tables_;  // per scan
  std::vector<std::uint64_t> offsets_;               // cert_count + 1
  std::vector<Obs> obs_;                             // flat {scan, ip}
  std::vector<net::Asn> obs_asn_;                    // parallel column
  std::vector<CertStats> stats_;                     // per cert
  std::vector<scan::DeviceId> first_device_;         // per cert
  std::vector<std::uint32_t> key_degree_;            // per cert
  std::vector<scan::KeyFingerprint> keys_;           // per cert SPKI key
};

}  // namespace sm::corpus
