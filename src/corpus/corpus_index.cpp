#include "corpus/corpus_index.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "util/datetime.h"

namespace sm::corpus {

namespace {

// Chunk sizes for the parallel passes. Cert chunks are small because a
// single cert can own thousands of observations; key chunks are large
// (the per-element work is one hash probe).
constexpr std::size_t kRowChunk = 256;
constexpr std::size_t kKeyChunk = 8192;

/// Derives one certificate's stats row from its (non-empty) CSR segment.
/// `ips`, `all_ips` and `ases` are scratch reused across certificates.
CertStats derive_stats(std::span<const Obs> obs, std::span<const net::Asn> asns,
                       bool routed, std::vector<std::uint32_t>& ips,
                       std::vector<std::uint32_t>& all_ips,
                       std::vector<net::Asn>& ases) {
  CertStats s;
  s.first_scan = obs.front().scan;
  s.last_scan = obs.back().scan;
  s.min_ips_in_scan = std::numeric_limits<std::uint32_t>::max();
  // Per-scan runs: unique-IP counts feed the slot/min/max metrics, and the
  // per-scan unique IPs collect into the whole-history distinct count.
  all_ips.clear();
  for (std::size_t i = 0; i < obs.size();) {
    const std::uint32_t scan = obs[i].scan;
    ips.clear();
    while (i < obs.size() && obs[i].scan == scan) ips.push_back(obs[i++].ip);
    std::sort(ips.begin(), ips.end());
    ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
    const auto ip_count = static_cast<std::uint32_t>(ips.size());
    ++s.scans_seen;
    s.total_ip_scan_slots += ip_count;
    s.max_ips_in_scan = std::max(s.max_ips_in_scan, ip_count);
    s.min_ips_in_scan = std::min(s.min_ips_in_scan, ip_count);
    all_ips.insert(all_ips.end(), ips.begin(), ips.end());
  }
  if (s.scans_seen > 1) {
    std::sort(all_ips.begin(), all_ips.end());
    all_ips.erase(std::unique(all_ips.begin(), all_ips.end()), all_ips.end());
  }
  s.distinct_ips = static_cast<std::uint32_t>(all_ips.size());
  // Sorted IPs put each /24 in one run.
  for (std::size_t i = 0; i < all_ips.size(); ++i) {
    if (i == 0 || (all_ips[i] >> 8) != (all_ips[i - 1] >> 8)) {
      ++s.distinct_slash24s;
    }
  }
  if (!routed) return s;
  // Observation-weighted AS tally. Scanning runs of the sorted copy in
  // ascending ASN order with a strictly-greater test makes ties break
  // toward the smallest AS number; ASN 0 (unroutable), when present, is
  // the first run.
  ases.assign(asns.begin(), asns.end());
  std::sort(ases.begin(), ases.end());
  s.unroutable_seen = ases.front() == 0;
  std::size_t best_count = 0;
  for (std::size_t i = 0; i < ases.size();) {
    std::size_t j = i;
    while (j < ases.size() && ases[j] == ases[i]) ++j;
    ++s.distinct_as_count;
    if (j - i > best_count) {
      best_count = j - i;
      s.majority_as = ases[i];
    }
    i = j;
  }
  return s;
}

/// Holders of one SPKI key: those the prefix already counted and those
/// among the certificates the extension adds.
struct KeyHolders {
  std::uint32_t old_holders = 0;
  std::uint32_t new_holders = 0;
};

/// Key counting is hash-partitioned by the key's top bits (the low bits
/// pick the map bucket), so each partition's map has one writer.
constexpr std::size_t kKeyPartBits = 6;
constexpr std::size_t kKeyParts = std::size_t{1} << kKeyPartBits;

std::size_t key_part(scan::KeyFingerprint key) {
  return static_cast<std::size_t>(key >> (64 - kKeyPartBits));
}

}  // namespace

CorpusIndex::CorpusIndex(const scan::ScanArchive& archive,
                         const CorpusOptions& options)
    : archive_(&archive), routing_(options.routing) {
  build(nullptr, options.pool != nullptr ? *options.pool
                                         : util::ThreadPool::global());
}

CorpusIndex::CorpusIndex(const scan::ScanArchive& archive,
                         const CorpusIndex& prefix,
                         const CorpusOptions& options)
    : archive_(&archive), routing_(options.routing) {
  // Cheap prefix checks: same routing, no fewer certs or scans, and the
  // shared scans carry the same starts and observation counts.
  const auto& scans = archive.scans();
  const auto& old_scans = prefix.archive_->scans();
  bool extends = prefix.routing_ == routing_ &&
                 prefix.cert_count() <= archive.certs().size() &&
                 old_scans.size() <= scans.size();
  for (std::size_t s = 0; extends && s < old_scans.size(); ++s) {
    extends = scans[s].event.start == old_scans[s].event.start &&
              scans[s].observations.size() == old_scans[s].observations.size();
  }
  if (!extends) {
    throw std::invalid_argument(
        "CorpusIndex: the archive does not extend the prefix spine's");
  }
  build(&prefix, options.pool != nullptr ? *options.pool
                                         : util::ThreadPool::global());
}

void CorpusIndex::build(const CorpusIndex* prefix, util::ThreadPool& pool) {
  const auto& scans = archive_->scans();
  const std::size_t cert_count = archive_->certs().size();

  // The prefix's columns: certs [0, old_certs) and scans [0, old_scans)
  // are already built there. All empty for the cold build.
  std::span<const std::uint64_t> old_offsets;
  std::span<const Obs> old_obs;
  std::span<const net::Asn> old_asn;
  std::span<const CertStats> old_stats;
  std::span<const scan::DeviceId> old_first_device;
  std::span<const net::RouteTable* const> old_tables;
  if (prefix != nullptr) {
    old_offsets = prefix->offsets_;
    old_obs = prefix->obs_;
    old_asn = prefix->obs_asn_;
    old_stats = prefix->stats_;
    old_first_device = prefix->first_device_;
    old_tables = prefix->scan_tables_;
  }
  const std::size_t old_certs = old_stats.size();
  const std::size_t old_scans = old_tables.size();
  const auto old_len = [&](std::size_t id) -> std::uint64_t {
    return id < old_certs ? old_offsets[id + 1] - old_offsets[id] : 0;
  };

  scan_tables_.assign(old_tables.begin(), old_tables.end());
  for (std::size_t s = old_scans; s < scans.size(); ++s) {
    scan_tables_.push_back(routing_ == nullptr
                               ? nullptr
                               : routing_->at(scans[s].event.start));
  }

  // Pass 1 (serial): count the new scans' observations per cert, then
  // prefix-sum old row + new observations into the CSR offsets. The
  // layout depends only on archive order, never on threads.
  offsets_.assign(cert_count + 1, 0);
  for (std::size_t s = old_scans; s < scans.size(); ++s) {
    for (const scan::Observation& obs : scans[s].observations) {
      ++offsets_[obs.cert + 1];
    }
  }
  for (std::size_t i = 0; i < cert_count; ++i) {
    offsets_[i + 1] += offsets_[i] + old_len(i);
  }

  // Pass 2 (serial): scatter the new observations behind each cert's old
  // row. Walking scans in order keeps every row sorted by (scan,
  // intra-scan position), and a write to a row's first slot is the
  // cert's first-ever observation.
  obs_.resize(offsets_[cert_count]);
  obs_asn_.resize(obs_.size());
  first_device_.assign(old_first_device.begin(), old_first_device.end());
  first_device_.resize(cert_count, scan::kNoDevice);
  std::vector<std::uint64_t> cursor(cert_count);
  for (std::size_t i = 0; i < cert_count; ++i) {
    cursor[i] = offsets_[i] + old_len(i);
  }
  for (std::size_t scan_index = old_scans; scan_index < scans.size();
       ++scan_index) {
    const auto scan32 = static_cast<std::uint32_t>(scan_index);
    for (const scan::Observation& obs : scans[scan_index].observations) {
      const std::uint64_t slot = cursor[obs.cert]++;
      if (slot == offsets_[obs.cert]) first_device_[obs.cert] = obs.device;
      obs_[slot] = Obs{scan32, obs.ip};
    }
  }

  // Pass 3 (parallel): per cert, copy the old row and its ASNs, resolve
  // the new observations' ASNs, and derive the stats row when the cert
  // has new observations (else it keeps the prefix's row, or the empty
  // one). Every slot has one writer, so the columns are
  // thread-count-invariant.
  stats_.assign(old_stats.begin(), old_stats.end());
  stats_.resize(cert_count);
  pool.parallel_for(cert_count, kRowChunk, [&](std::size_t begin,
                                               std::size_t end) {
    std::vector<std::uint32_t> ips;  // scratch, reused across certs
    std::vector<std::uint32_t> all_ips;
    std::vector<net::Asn> ases;
    for (std::size_t id = begin; id < end; ++id) {
      const std::uint64_t lo = offsets_[id];
      const std::uint64_t hi = offsets_[id + 1];
      const std::uint64_t fresh = lo + old_len(id);
      if (fresh > lo) {
        const std::uint64_t from = old_offsets[id];
        std::copy(old_obs.begin() + from, old_obs.begin() + (from + fresh - lo),
                  obs_.begin() + lo);
        std::copy(old_asn.begin() + from, old_asn.begin() + (from + fresh - lo),
                  obs_asn_.begin() + lo);
      }
      if (fresh == hi) continue;  // no new observations
      for (std::uint64_t i = fresh; i < hi; ++i) {
        const net::RouteTable* table = scan_tables_[obs_[i].scan];
        obs_asn_[i] = table == nullptr
                          ? 0
                          : table->lookup(net::Ipv4Address(obs_[i].ip))
                                .value_or(0);
      }
      stats_[id] = derive_stats(
          {obs_.data() + lo, obs_.data() + hi},
          {obs_asn_.data() + lo, obs_asn_.data() + hi}, routing_ != nullptr,
          ips, all_ips, ases);
    }
  });

  build_key_degrees(prefix, pool);
}

void CorpusIndex::build_key_degrees(const CorpusIndex* prefix,
                                    util::ThreadPool& pool) {
  const scan::CertTable& certs = archive_->certs();
  std::span<const std::uint32_t> old_degree;
  std::span<const scan::KeyFingerprint> old_keys;
  if (prefix != nullptr) {
    old_degree = prefix->key_degree_;
    old_keys = prefix->keys_;
  }
  const std::size_t old_certs = old_degree.size();

  // The key column: the prefix's, then the new certificates' gathered.
  keys_.assign(old_keys.begin(), old_keys.end());
  keys_.resize(certs.size());
  pool.parallel_for(certs.size() - old_certs, kKeyChunk,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        keys_[old_certs + i] =
                            certs[old_certs + i].key_fingerprint;
                      }
                    });

  // New holders per key, counted per partition.
  std::array<std::vector<scan::CertId>, kKeyParts> fresh;
  for (std::size_t id = old_certs; id < certs.size(); ++id) {
    fresh[key_part(keys_[id])].push_back(static_cast<scan::CertId>(id));
  }
  std::array<std::unordered_map<scan::KeyFingerprint, KeyHolders>, kKeyParts>
      added;
  pool.parallel_for(kKeyParts, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t part = begin; part < end; ++part) {
      for (const scan::CertId id : fresh[part]) {
        ++added[part][keys_[id]].new_holders;
      }
    }
  });

  // Every old degree carries over; old holders of an added key gain its
  // new holders. The maps are only read here: each chunk reports the old
  // holders it found, and their old counts merge serially below.
  key_degree_.assign(old_degree.begin(), old_degree.end());
  key_degree_.resize(certs.size());
  std::vector<std::vector<scan::CertId>> holders(
      (old_certs + kKeyChunk - 1) / kKeyChunk);
  if (certs.size() > old_certs) {
    pool.parallel_for(old_certs, kKeyChunk, [&](std::size_t begin,
                                                std::size_t end) {
      for (std::size_t id = begin; id < end; ++id) {
        const auto& part = added[key_part(keys_[id])];
        const auto it = part.find(keys_[id]);
        if (it == part.end()) continue;
        key_degree_[id] += it->second.new_holders;
        holders[begin / kKeyChunk].push_back(static_cast<scan::CertId>(id));
      }
    });
  }
  for (const std::vector<scan::CertId>& chunk : holders) {
    for (const scan::CertId id : chunk) {
      added[key_part(keys_[id])][keys_[id]].old_holders = old_degree[id];
    }
  }

  // New certificates: every holder, old and new.
  pool.parallel_for(kKeyParts, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t part = begin; part < end; ++part) {
      for (const scan::CertId id : fresh[part]) {
        const KeyHolders& h = added[part].at(keys_[id]);
        key_degree_[id] = h.old_holders + h.new_holders;
      }
    }
  });
}

double CorpusIndex::lifetime_days(scan::CertId id) const {
  const CertStats& s = stats_[id];
  if (s.scans_seen == 0) return 0;
  if (s.first_scan == s.last_scan) return 1;
  const auto& scans = archive_->scans();
  const double seconds = static_cast<double>(
      scans[s.last_scan].event.start - scans[s.first_scan].event.start);
  return seconds / static_cast<double>(util::kSecondsPerDay) + 1.0;
}

net::Asn CorpusIndex::as_of(std::size_t scan_index, std::uint32_t ip) const {
  const net::RouteTable* table = scan_tables_[scan_index];
  if (table == nullptr) return 0;
  return table->lookup(net::Ipv4Address(ip)).value_or(0);
}

}  // namespace sm::corpus
