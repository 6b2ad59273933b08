// ScanArchive — the dataset container: an interned table of unique
// certificates plus, per scan, the (certificate, IP) observations. This is
// the in-memory analog of the paper's 222-scan corpus.
//
// Observations also carry the *true* device id assigned by the simulator.
// The paper had no such ground truth; the analysis layer never uses it for
// linking, only for the precision/recall scoring the paper lists as future
// work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "scan/cert_record.h"
#include "scan/schedule.h"

namespace sm::scan {

/// Index of a unique certificate within the archive.
using CertId = std::uint32_t;

/// Ground-truth device identifier (simulator-assigned).
using DeviceId = std::uint32_t;

/// Sentinel for "no known device".
inline constexpr DeviceId kNoDevice = 0xffffffff;

/// One host observation within one scan.
struct Observation {
  CertId cert = 0;
  std::uint32_t ip = 0;
  DeviceId device = kNoDevice;  ///< ground truth only; not a linking input
};

/// One completed scan: its metadata and all observations.
struct ScanData {
  ScanEvent event;
  std::vector<Observation> observations;
};

/// Certificates per chunk of an archive's certificate table (a power of
/// two, so id -> chunk is a shift).
inline constexpr std::size_t kCertChunk = 4096;

/// An archive's certificate table: fixed-size chunks of kCertChunk
/// records. Full chunks never change again and are held by
/// shared_ptr<const>, so copying a table — one live-ingest epoch's archive
/// into the next — copies pointers and clones only the partial last
/// chunk. Ids index the table like a vector.
class CertTable {
 public:
  /// Forward iterator in id order (what range-for and the callers need).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = CertRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const CertRecord*;
    using reference = const CertRecord&;

    const_iterator() = default;
    const_iterator(const CertTable* table, std::size_t index)
        : table_(table), index_(index) {}

    reference operator*() const { return (*table_)[index_]; }
    pointer operator->() const { return &(*table_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const const_iterator before = *this;
      ++index_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const CertTable* table_ = nullptr;
    std::size_t index_ = 0;
  };

  std::size_t size() const { return full_.size() * kCertChunk + tail_.size(); }
  bool empty() const { return full_.empty() && tail_.empty(); }

  const CertRecord& operator[](std::size_t id) const {
    const std::size_t chunk = id / kCertChunk;
    return chunk < full_.size() ? (*full_[chunk])[id % kCertChunk]
                                : tail_[id % kCertChunk];
  }
  const CertRecord& front() const { return (*this)[0]; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Appends one record; returns its id.
  CertId push_back(CertRecord&& record);

 private:
  using Chunk = std::vector<CertRecord>;
  std::vector<std::shared_ptr<const Chunk>> full_;  ///< shared by copies
  Chunk tail_;  ///< the partial last chunk, owned (a copy clones it)
};

/// The full dataset.
class ScanArchive {
 public:
  ScanArchive() = default;
  /// An archive holding `certs` (shared chunk for chunk) and no scans.
  explicit ScanArchive(CertTable certs) : certs_(std::move(certs)) {}

  /// Interns a certificate record, returning its stable id. Records with a
  /// previously-seen fingerprint are deduplicated.
  CertId intern(const CertRecord& record);
  CertId intern(CertRecord&& record);

  /// Appends a certificate the caller knows is not yet interned, skipping
  /// the dedup lookup — the path for an appender that keeps its own
  /// fingerprint table (corpus::LiveCorpus). Returns its id.
  CertId append_cert(CertRecord&& record) {
    return certs_.push_back(std::move(record));
  }

  /// Looks up an interned certificate by fingerprint; returns false when
  /// unknown. Non-const: it first brings the intern table up to date (a
  /// copied archive builds its table on first use).
  bool find(const CertFingerprint& fingerprint, CertId& out);

  /// Starts a new scan; observations are appended to the returned ScanData
  /// via add_observation. Scans must be begun in chronological order.
  std::size_t begin_scan(const ScanEvent& event);

  /// Appends one observation to scan `scan_index`.
  void add_observation(std::size_t scan_index, CertId cert, std::uint32_t ip,
                       DeviceId device);

  /// Appends a fully-built scan (event + observations) in one move — the
  /// bulk path the parallel archive loader uses. Same chronological
  /// requirement as begin_scan. Returns the new scan's index.
  std::size_t add_scan(ScanData&& scan);

  /// Pre-sizes the intern table (a load-time optimization).
  void reserve_certs(std::size_t n);

  const CertTable& certs() const { return certs_; }
  const std::vector<ScanData>& scans() const { return scans_; }

  const CertRecord& cert(CertId id) const { return certs_[id]; }

  /// Total observations across all scans (O(1): maintained as a running
  /// counter by add_observation/add_scan — this is on hot stat paths).
  std::size_t observation_count() const { return observation_count_; }

 private:
  /// Fingerprint -> id over certs_[0, indexed): the dedup table intern()
  /// and find() consult. It is derived state, so a copy of the archive
  /// does not copy it; the copy indexes its certificates on first use.
  struct InternTable {
    std::unordered_map<CertFingerprint, CertId, FingerprintHash> ids;
    std::size_t indexed = 0;

    InternTable() = default;
    InternTable(const InternTable&) {}
    InternTable& operator=(const InternTable&) {
      ids.clear();
      indexed = 0;
      return *this;
    }
    InternTable(InternTable&& other) noexcept
        : ids(std::move(other.ids)), indexed(std::exchange(other.indexed, 0)) {
      other.ids.clear();
    }
    InternTable& operator=(InternTable&& other) noexcept {
      ids = std::move(other.ids);
      indexed = std::exchange(other.indexed, 0);
      other.ids.clear();
      return *this;
    }
  };

  /// Indexes the certificates appended since the table last caught up.
  void catch_up_intern_table();
  template <typename Record>
  CertId intern_impl(Record&& record);

  CertTable certs_;
  InternTable interned_;
  std::vector<ScanData> scans_;
  std::size_t observation_count_ = 0;
};

/// Per-certificate lifetime summary over an archive: the scan-index range
/// and observation counts the linking methodology consumes.
struct CertLifetime {
  std::uint32_t first_scan = 0;  ///< index of first scan observed
  std::uint32_t last_scan = 0;   ///< index of last scan observed
  std::uint32_t scans_seen = 0;  ///< number of scans with >= 1 observation

  /// Inclusive lifetime in days given the scan start times, computed the
  /// paper's way: 1 day when seen once; (last - first) + 1 day otherwise.
  double days(const std::vector<ScanData>& scans) const;
};

/// Computes lifetimes for every certificate in the archive ([] = cert id).
std::vector<CertLifetime> compute_lifetimes(const ScanArchive& archive);

}  // namespace sm::scan
