// ScanArchive persistence:
//
//  * a compact binary container ("SMAR") for saving/reloading archives, so
//    an expensive simulation or a parsed real-world scan corpus is paid for
//    once. Two on-disk revisions exist:
//      - v1 (legacy): a single unframed stream with no checksums. Still
//        readable; new archives are not written in it unless asked.
//      - v2 (default): per-section frames — a header, the certificate table
//        sharded into fixed-size chunks, one frame per scan, and an end
//        marker — each carrying a CRC32 of its payload, so truncation,
//        bit rot, and trailing garbage are detected at load time. Frames
//        are serialized/deserialized in parallel on the shared
//        util::ThreadPool; the bytes written and the archive loaded are
//        bit-identical for every thread count.
//  * a streaming visitor (ArchiveReader) that walks certificates and scans
//    one record at a time without materializing the whole ScanArchive;
//  * a TSV interchange format so real scan data (e.g. parsed scans.io
//    snapshots) can be fed to the analysis/linking/tracking pipeline, and
//    simulated data can be exported to external tooling.
//
// All formats round-trip every field the pipeline consumes, including
// hostile string contents (tabs, newlines, '%', '|' inside SAN entries).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "scan/archive.h"

namespace sm::scan {

/// On-disk revisions of the binary "SMAR" container.
enum class ArchiveVersion : std::uint32_t {
  kV1 = 1,  ///< legacy: unframed, no checksums
  kV2 = 2,  ///< framed, CRC32 per section, sharded, end marker
};

/// Extra detail a load can report beyond success/failure.
struct ArchiveLoadReport {
  std::uint32_t version = 0;    ///< format version encountered (0 = none)
  bool trailing_bytes = false;  ///< the stream continued past the archive
};

/// Serializes an archive to the binary "SMAR" format. Returns false — with
/// the stream possibly part-written but never silently truncated counts —
/// when the archive exceeds a format limit (certificate/scan/observation/
/// SAN counts or string lengths) or the stream fails.
bool save_archive(const ScanArchive& archive, std::ostream& out,
                  ArchiveVersion version = ArchiveVersion::kV2);

/// Deserializes a binary archive (either version, self-identified by its
/// header). Returns nullopt on malformed input — bad magic, unsupported
/// version, truncation, checksum mismatch, out-of-range indices,
/// non-chronological scans — without crashing or over-allocating. Reads
/// exactly the archive's bytes, so an archive embedded in a larger stream
/// (see simworld/world_io.h) leaves the remainder untouched. When `report`
/// is non-null, it receives the version and — by peeking one byte past the
/// end, so don't combine with embedded use — whether trailing bytes follow.
std::optional<ScanArchive> load_archive(std::istream& in,
                                        ArchiveLoadReport* report = nullptr);

/// Convenience: save to / load from a file path. A file must contain
/// exactly one archive, so load rejects trailing bytes (for v1, which has
/// no end marker, this is the only trailing-garbage detection). Load
/// returns nullopt when the file is missing or malformed; save returns
/// false on I/O failure or format-limit overflow.
bool save_archive_file(const ScanArchive& archive, const std::string& path,
                       ArchiveVersion version = ArchiveVersion::kV2);
std::optional<ScanArchive> load_archive_file(const std::string& path);

/// Streams an archive record-by-record without building a ScanArchive —
/// the low-memory path for analyses and `sm_survey stat` over corpora that
/// should not be materialized whole. The underlying stream is consumed
/// sequentially, so visit certificates (optional) before scans:
///
///   ArchiveReader reader(in);
///   reader.for_each_cert([&](CertId id, CertRecord&& cert) { ... });
///   reader.for_each_scan([&](ScanData&& scan) { ... });
///
/// Each record is handed over by rvalue — the reader is done with it — so
/// a callback that keeps records moves them instead of copying. Every
/// record is validated exactly as load_archive would (checksums, bounds,
/// ordering); any failure puts the reader in a sticky error state.
class ArchiveReader {
 public:
  using CertFn = std::function<void(CertId, CertRecord&&)>;
  using ScanFn = std::function<void(ScanData&&)>;

  /// Reads and validates the archive header. On failure ok() is false.
  explicit ArchiveReader(std::istream& in);

  /// True until the header or any streamed section fails to parse.
  bool ok() const { return state_ != State::kError; }
  std::uint32_t version() const { return version_; }

  /// Total unique certificates (known from the header in both versions).
  std::uint64_t cert_count() const { return cert_count_; }

  /// Total scans: known up front for v2; for v1 only once the certificate
  /// section has been consumed (0 before that).
  std::uint64_t scan_count() const { return scan_count_; }

  /// Streams every certificate in id order. Returns false on corrupt
  /// input or if the certificate section was already consumed.
  bool for_each_cert(const CertFn& fn);

  /// Streams every scan in order. If for_each_cert was not called, the
  /// certificate section is consumed (checksummed but unparsed for v2)
  /// first. Verifies the v2 end marker. Returns false on corrupt input or
  /// if the scan section was already consumed.
  bool for_each_scan(const ScanFn& fn);

  /// True once every section (and the v2 end marker) was consumed and
  /// verified.
  bool finished() const { return state_ == State::kDone; }

 private:
  enum class State { kError, kCerts, kScans, kDone };

  bool skip_certs();

  std::istream& in_;
  State state_ = State::kError;
  std::uint32_t version_ = 0;
  std::uint64_t cert_count_ = 0;
  std::uint64_t scan_count_ = 0;
  std::uint64_t obs_count_ = 0;   // v2 header's claimed total observations
  std::uint64_t cert_chunk_ = 0;  // v2 certificates per cert frame
};

/// Writes the archive as two TSV sections:
///   #certs <tab-separated cert rows>
///   #observations <scan_index, campaign, scan_start, cert_index, ip, device>
/// Strings are percent-escaped for tabs/newlines/percent signs; SAN list
/// entries additionally escape '|' and each entry is terminated by '|', so
/// arbitrary entry contents (and empty entries) round-trip losslessly.
void export_tsv(const ScanArchive& archive, std::ostream& out);

/// Parses the TSV format written by export_tsv (current or legacy SAN
/// encoding). Returns nullopt on malformed input.
std::optional<ScanArchive> import_tsv(std::istream& in);

}  // namespace sm::scan
