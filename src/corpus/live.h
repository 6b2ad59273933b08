// LiveCorpus — the growing corpus behind a continuously updating notary.
//
// The paper's §8 notary is inherently a live service: the scan corpus
// keeps growing while clients query it (the Certificate Transparency
// delivery shape — an append-only log that monitors poll). Everything
// else in this repository builds once from a finished archive;
// LiveCorpus is the bridge between those immutable builds and a stream
// of new scan segments:
//
//   * ingest: append_segment() streams one SMAR segment (certificates +
//     scans) through scan::ArchiveReader, moves its new certificates
//     into a copy of the current archive — a copy that shares every full
//     certificate chunk with it, so no record is copied — appends its
//     scans, and extends the current epoch's immutable
//     corpus::CorpusIndex spine on the shared util::ThreadPool (old rows
//     copied, only the new observations resolved and re-derived);
//   * publish: the new (archive, spine, delta) triple becomes a
//     LiveSnapshot published through one epoch/RCU-style shared_ptr
//     swap (std::atomic<std::shared_ptr>, release store). Readers take
//     acquire loads and hold zero locks: a snapshot() caller keeps the
//     whole epoch alive via its shared_ptr while queries render, and
//     old epochs retire automatically when the last reader drops them;
//   * delta: each snapshot carries the exact set of certificate ids
//     whose knowledge changed in that epoch — certificates observed by
//     the new scans, newly interned certificates, and every existing
//     certificate sharing an SPKI key with a new one (its key-sharing
//     degree grew). Downstream caches (NotaryService's per-shard LRU)
//     invalidate precisely this set and keep everything else.
//
// Certificate ids are stable across epochs: interning is append-only
// and deduplicates by fingerprint, so id N means the same certificate
// in every snapshot that contains it. Appends are serialized by a
// writer mutex; failed appends (corrupt segment, non-chronological
// scans) leave the published snapshot and all ingest state untouched.
//
// Two additions serve the sharded deployment:
//
//   * sidecar maps: each snapshot can carry fingerprint-keyed revocation
//     statuses and full-corpus key-sharing degrees, versioned with the
//     same copy-on-write discipline as the archive. append_segment and
//     merge_slice update them (a cert revoked mid-ingestion invalidates
//     its cache entry through the delta like any other change), and
//     NotaryIndex builds inject them so a slice answers byte-identically
//     to the unsharded oracle;
//   * resharding: merge_slice() absorbs another shard's prefix slice
//     (matching scans by start time and concatenating observations; the
//     certificate table is shared and appended to, the spine built
//     cold), and retire_prefix() drops a handed-off range. retire
//     rebuilds the certificate table, so it is the one operation that
//     breaks cert-id stability — its delta deliberately spans every id
//     of both the old and new epoch, forcing a full downstream cache
//     flush.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/corpus_index.h"
#include "net/route_table.h"
#include "scan/archive.h"

namespace sm::corpus {

/// Revocation status per certificate fingerprint (fingerprint-keyed so
/// entries survive re-interning across slices; mirrors
/// NotaryIndexOptions::revocation_statuses).
using RevocationStatusMap =
    std::unordered_map<scan::CertFingerprint, pki::RevocationStatus,
                       scan::FingerprintHash>;

/// Full-corpus key-sharing degree per SPKI key (mirrors
/// NotaryIndexOptions::key_counts). A prefix slice cannot derive these
/// from its own certificates, so sharded daemons carry them alongside.
using KeyCountMap = std::unordered_map<scan::KeyFingerprint, std::uint32_t>;

/// One immutable published epoch of the growing corpus. Everything here
/// is safe to read from any thread for as long as the shared_ptr that
/// delivered it lives. Member order matters: `spine` borrows `*archive`,
/// so it is declared after (destroyed before) the archive.
struct LiveSnapshot {
  /// 0 for the initial snapshot; +1 per successful publish (append,
  /// slice merge, or prefix retire).
  std::uint64_t epoch = 0;
  std::shared_ptr<const scan::ScanArchive> archive;
  std::shared_ptr<const CorpusIndex> spine;
  /// Certificate ids whose derived knowledge changed in this epoch
  /// (ascending, deduplicated; empty for epoch 0). After retire_prefix
  /// this spans every id of the old AND new epoch — ids were remapped,
  /// so nothing cached under the old numbering may survive.
  std::vector<scan::CertId> delta;
  /// Revocation statuses in effect for this epoch (null = none known).
  std::shared_ptr<const RevocationStatusMap> statuses;
  /// Injected full-corpus key-sharing degrees (null = derive from the
  /// archive itself, the unsharded case).
  std::shared_ptr<const KeyCountMap> key_counts;
};

/// Outcome of one append_segment() call.
struct AppendResult {
  bool ok = false;
  std::string error;             ///< set when !ok
  std::size_t scans_appended = 0;
  std::size_t new_certs = 0;     ///< certificates first seen in this segment
  std::size_t observations = 0;  ///< observations appended
  std::size_t delta_size = 0;    ///< |snapshot()->delta| after the append
};

class LiveCorpus {
 public:
  /// Seeds the corpus with an initial archive and publishes epoch 0.
  /// `routing` (optional, borrowed) enables the spine's AS resolution;
  /// `pool` (optional) runs the spine builds (null = global pool).
  /// `statuses` seeds the revocation sidecar; a non-empty `key_counts`
  /// marks this corpus as a prefix slice carrying injected full-corpus
  /// degrees (every sm_notaryd passes both, the whole corpus included).
  explicit LiveCorpus(scan::ScanArchive initial,
                      const net::RoutingHistory* routing = nullptr,
                      util::ThreadPool* pool = nullptr,
                      RevocationStatusMap statuses = {},
                      KeyCountMap key_counts = {});

  LiveCorpus(const LiveCorpus&) = delete;
  LiveCorpus& operator=(const LiveCorpus&) = delete;

  /// The current epoch — one lock-free acquire load. The returned
  /// shared_ptr keeps the snapshot (archive + spine) alive for the
  /// caller regardless of later publishes.
  std::shared_ptr<const LiveSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Streams one SMAR segment from `in` and publishes a new epoch.
  /// Serializes with other appends; never blocks readers. On any
  /// failure (corrupt segment, scans not after the current last scan)
  /// nothing is published and the result carries the reason.
  /// `statuses` (optional) carries revocation statuses learned with the
  /// segment — typically for its newly interned certificates, but a
  /// changed status for an already-known certificate is applied too and
  /// lands in the delta, so a cert revoked mid-ingestion invalidates its
  /// cached render.
  AppendResult append_segment(std::istream& in,
                              const RevocationStatusMap* statuses = nullptr);

  /// Streams another shard's prefix slice (SMAR bytes from `in`) and
  /// merges it: certificates are re-interned (new ones appended, so
  /// existing ids stay stable), scans are matched to the local timeline
  /// by start time — observations concatenate for a shared scan, scans
  /// unknown locally are inserted — and the sidecar maps absorb
  /// `key_counts` (taking the larger degree) and `statuses`. Both
  /// archives must keep strictly increasing scan start times; the caller
  /// guarantees the slice's prefix range is disjoint from ranges already
  /// ingested in full (the sender protocol does). An empty local archive
  /// (a fresh successor daemon) adopts the slice wholesale.
  AppendResult merge_slice(std::istream& in,
                           const KeyCountMap* key_counts = nullptr,
                           const RevocationStatusMap* statuses = nullptr);

  /// Drops every certificate whose fingerprint starts with a byte in
  /// [lo, hi] (inclusive) and their observations; scans and the rest of
  /// the corpus survive. The intern table is rebuilt, so cert ids are
  /// remapped: the published delta covers every id of the old and new
  /// epoch, and downstream caches must flush accordingly (LiveSnapshot
  /// delta semantics make that automatic).
  AppendResult retire_prefix(std::uint8_t lo, std::uint8_t hi);

  /// Successful publishes so far (== snapshot()->epoch).
  std::uint64_t epochs_published() const {
    return snapshot()->epoch;
  }

 private:
  struct PendingPublish;
  void publish(PendingPublish&& pending);
  /// Rebuilds ids_ and keys_ over `archive`'s certificates.
  void index_certs(const scan::ScanArchive& archive);
  /// Interns `certs` (moved from) into `next` through ids_, returning
  /// each one's global id; marks in `changed` the existing certs whose
  /// key a new one shares, and counts new certs into `result`.
  std::vector<scan::CertId> intern_certs(std::vector<scan::CertRecord>& certs,
                                         scan::ScanArchive& next,
                                         std::vector<char>& changed,
                                         AppendResult& result);
  /// Folds `statuses` into statuses_, marking known certs whose status
  /// moved in `changed`.
  void apply_statuses(const RevocationStatusMap* statuses,
                      std::vector<char>& changed);

  const net::RoutingHistory* routing_;
  util::ThreadPool* pool_;

  std::mutex append_mutex_;  ///< serializes writers; readers never take it
  /// Append-side state over the *current* epoch's certificates, guarded
  /// by append_mutex_ and never copied per epoch:
  ///   ids_   fingerprint -> certificate id, the dedup table appends and
  ///          merges intern through (epoch archives carry none of their
  ///          own);
  ///   keys_  SPKI key -> certificate ids holding it, to find the
  ///          existing certs whose key-sharing degree a new cert changes.
  std::unordered_map<scan::CertFingerprint, scan::CertId,
                     scan::FingerprintHash>
      ids_;
  std::unordered_map<scan::KeyFingerprint, std::vector<scan::CertId>> keys_;
  /// Current sidecar versions (append-side; published by pointer, copied
  /// on change). statuses_ null means empty; key_counts_ null means "not
  /// a slice — derive degrees locally".
  std::shared_ptr<const RevocationStatusMap> statuses_;
  std::shared_ptr<const KeyCountMap> key_counts_;

  std::atomic<std::shared_ptr<const LiveSnapshot>> snapshot_;
};

/// Builds a standalone archive containing scans [first, last) of `full`
/// and exactly the certificates they observe, re-interned densely. The
/// segment-producer helper: sm_notaryd --split-segments and the tests
/// use it to split a simulated archive into an initial corpus plus a
/// stream of appendable SMAR segments.
scan::ScanArchive extract_segment(const scan::ScanArchive& full,
                                  std::size_t first, std::size_t last);

/// Builds the fingerprint-prefix slice of `full` for one notary shard:
/// every certificate whose fingerprint's first byte lies in [lo, hi]
/// (inclusive), re-interned densely in original id order — including
/// interned-but-never-observed certificates, so the N slices of a
/// partition cover the archive exactly. Scans from `first_scan` on are
/// kept (with only the in-range observations); the default 0 keeps ALL
/// scans, so each shard reports the same staleness bound (scan count,
/// last scan start) as the unsliced corpus. A nonzero `first_scan` is
/// the slice-handoff catch-up form: all in-range certificates (intern
/// dedups re-sends on the receiving side) but only the scans the
/// receiver has not yet merged.
scan::ScanArchive extract_prefix_slice(const scan::ScanArchive& full,
                                       std::uint8_t lo, std::uint8_t hi,
                                       std::size_t first_scan = 0);

}  // namespace sm::corpus
