// NotaryIndex — the immutable, sharded lookup structure behind sm_notaryd.
//
// The paper's closing argument is that invalid certificates are mostly
// *benign device certificates*, and that a client could make an informed
// accept/reject decision at connection time if something answered "what do
// we know about this certificate?" — the certificate-notary / CT-monitor
// delivery shape. This index is that answer, precomputed over a scan
// corpus: for every certificate, its validity classification (as computed
// by pki::BatchVerifier at archive build time and carried on each
// CertRecord), when it was first and last observed, how many scans and
// observations it appeared in, how widely it was hosted (distinct IPs,
// /24s, and — when a routing history is supplied — origin ASes), how many
// certificates share its public key (the Figure 6 key-sharing degree; a
// firmware-family tell), and which linked device identity the §6 linking
// methodology assigned (when linking output is supplied).
//
// Construction is a parallel gather on a util::ThreadPool: every derived
// figure (scans, first/last seen, distinct IPs, /24s and ASes, key-sharing
// degree) is read from the corpus::CorpusIndex spine's columns, never
// re-derived here. It is deterministic: every field and every rendered
// response is byte-identical at any thread count.
// After construction the index is immutable, so lookups are lock-free and
// safe from any number of server workers.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/corpus_index.h"
#include "net/route_table.h"
#include "scan/archive.h"

namespace sm::util {
class ThreadPool;
}  // namespace sm::util

namespace sm::notary {

/// Sentinel: the certificate was not linked to any device group.
inline constexpr std::uint32_t kNoLinkedDevice = 0xffffffff;

/// Everything the notary knows about one certificate.
struct CertKnowledge {
  scan::CertFingerprint fingerprint{};

  // Validity classification (§4.2 taxonomy, expiry-ignoring).
  bool valid = false;
  bool transvalid = false;
  pki::InvalidReason reason = pki::InvalidReason::kNone;

  // Revocation status (orthogonal to the validity taxonomy), injected at
  // build time from a BatchVerifier revocation pass; kUnknown when the
  // index was built without one.
  pki::RevocationStatus revocation = pki::RevocationStatus::kUnknown;

  // Identity fields a client can cross-check against the presented cert.
  std::string subject_cn;
  std::string issuer_cn;
  util::UnixTime not_before = 0;
  util::UnixTime not_after = 0;

  // Observation history over the corpus.
  util::UnixTime first_seen = 0;  ///< start time of the first scan seen
  util::UnixTime last_seen = 0;   ///< start time of the last scan seen
  std::uint32_t scans_seen = 0;
  std::uint64_t observations = 0;

  // Hosting spread (§5 diversity evidence: a device cert lives on one IP).
  std::uint32_t distinct_ips = 0;
  std::uint32_t distinct_slash24s = 0;
  std::uint32_t distinct_ases = 0;  ///< 0 when built without routing data

  // Key-sharing degree: certificates in the corpus sharing this SPKI
  // (>= 1; large values are the Lancom-style firmware default tell).
  std::uint32_t key_sharing = 1;

  // Linked device id (§6 iterative linking group), kNoLinkedDevice when
  // the index was built without linking output or the cert stayed single.
  std::uint32_t linked_device = kNoLinkedDevice;
};

/// Optional inputs for NotaryIndex construction. AS resolution now comes
/// from the corpus spine's precomputed ASN column: build the spine with a
/// routing history to get distinct-AS counts.
struct NotaryIndexOptions {
  /// §6 linking output as plain cert-id groups (group index becomes the
  /// linked_device id). Kept as PODs so notary does not depend on linking.
  const std::vector<std::vector<scan::CertId>>* device_groups = nullptr;
  /// Pool for the parallel build; null = the process-global pool.
  util::ThreadPool* pool = nullptr;
  /// Key-sharing degrees per SPKI fingerprint, computed over a larger
  /// corpus than this index's archive (borrowed; must cover every key in
  /// the archive). A fingerprint-prefix shard (sm_notaryd --shard-prefix)
  /// must report the FULL corpus's degree — its slice alone under-counts
  /// keys whose other holders live on other shards. Null = the spine's
  /// key-degree column, counted over the archive being indexed (the
  /// single-process case).
  const std::unordered_map<scan::KeyFingerprint, std::uint32_t>* key_counts =
      nullptr;
  /// Revocation statuses per certificate fingerprint (borrowed; e.g.
  /// simworld::WorldResult::revocation.statuses). Fingerprint-keyed for
  /// the same reason as key_counts: prefix slices re-intern with
  /// different cert ids, and a fingerprint survives the slicing.
  /// Fingerprints absent from the map (or a null map) read kUnknown.
  const std::unordered_map<scan::CertFingerprint, pki::RevocationStatus,
                           scan::FingerprintHash>* revocation_statuses =
      nullptr;
};

/// The immutable index: fingerprint -> CertKnowledge across `kShards`
/// open-addressing hash shards (shard = first fingerprint byte, so the
/// mapping is stable across runs and thread counts).
///
/// Each shard is one contiguous array of {fingerprint, cert id} slots —
/// no per-node heap allocations, no pointer chasing: a lookup hashes
/// fingerprint bytes 8..15, lands on a slot, and probes linearly until it
/// hits the fingerprint or an empty slot. The table is built at most 70%
/// full and never mutated afterwards, so probes are short and the whole
/// structure is read-only (lock-free from any number of workers).
class NotaryIndex {
 public:
  static constexpr std::size_t kShards = 64;

  /// Builds the knowledge table from an already-built corpus spine (which
  /// is only borrowed during construction).
  explicit NotaryIndex(const corpus::CorpusIndex& corpus,
                       const NotaryIndexOptions& options = {});

  /// Returned by find() for a fingerprint the index does not hold.
  static constexpr scan::CertId kUnknownCert = 0xffffffff;

  /// Fingerprint lookup: the certificate's archive id (the key its
  /// cached render lives under), or kUnknownCert. Lock-free.
  scan::CertId find(const scan::CertFingerprint& fp) const;

  /// Fingerprint lookup; nullptr when unknown. Lock-free.
  const CertKnowledge* lookup(const scan::CertFingerprint& fp) const {
    const scan::CertId id = find(fp);
    return id == kUnknownCert ? nullptr : &knowledge(id);
  }

  /// Knowledge by archive certificate id.
  const CertKnowledge& knowledge(scan::CertId id) const {
    return entries_[id / kEntryChunk][id % kEntryChunk];
  }

  std::size_t size() const { return size_; }

  /// Staleness bound for the kSnapshotInfo response: how many scans the
  /// index was built over, and when the newest of them started.
  std::size_t scan_count() const { return scan_count_; }
  util::UnixTime last_scan_start() const { return last_scan_start_; }

  /// The shard a fingerprint hashes to (exposed for the per-shard caches).
  static std::size_t shard_of(const scan::CertFingerprint& fp) {
    return fp[0] % kShards;
  }

  /// Certificates whose fingerprints map to shard `s`. A prefix-sliced
  /// index (sm_notaryd --shard-prefix) leaves most shards empty; the
  /// response cache sizes its per-shard budgets by the populated set.
  std::size_t shard_population(std::size_t s) const {
    return shards_[s].count;
  }

 private:
  /// Sentinel cert id marking an unused table slot (real archives top out
  /// far below 2^32 certificates).
  static constexpr scan::CertId kEmptySlot = kUnknownCert;

  /// One table slot: 20 bytes, so a probe touches at most two cache
  /// lines even when it crosses a slot boundary.
  struct Slot {
    scan::CertFingerprint fp{};
    scan::CertId id = kEmptySlot;
  };

  /// One open-addressing shard: power-of-two slot array, linear probing.
  struct Shard {
    std::vector<Slot> slots;
    std::size_t mask = 0;   ///< slots.size() - 1 (slots is pow2 or empty)
    std::size_t count = 0;  ///< live entries
  };

  /// The fingerprint is itself hash output; bytes 8..15 are already
  /// uniform (byte 0 picks the shard, so use the other half for the
  /// in-shard probe start).
  static std::uint64_t probe_hash(const scan::CertFingerprint& fp) {
    std::uint64_t h = 0;
    std::memcpy(&h, fp.data() + 8, sizeof h);
    return h;
  }

  /// Entries per chunk of entries_: chunks are allocated and filled in
  /// parallel, so building an index never default-constructs every
  /// entry on one thread (a power of two, so id -> chunk is a shift).
  static constexpr std::size_t kEntryChunk = 65536;

  std::size_t size_ = 0;
  std::size_t scan_count_ = 0;
  util::UnixTime last_scan_start_ = 0;
  std::vector<std::vector<CertKnowledge>> entries_;  // [chunk][id % chunk]
  std::array<Shard, kShards> shards_;
};

/// Renders one certificate's knowledge as the canonical notary response
/// body — a pure function of the entry (deterministic bytes regardless of
/// thread count or caching; the loopback tests pin this).
std::string render_knowledge(const CertKnowledge& knowledge);

/// The same bytes appended to a caller-supplied buffer (the connection
/// outbuf on the query hot path). Performs no heap allocation beyond
/// growing `out`.
void render_knowledge_into(const CertKnowledge& knowledge, std::string& out);

/// Appends the lowercase-hex fingerprint (the kNotFound body) without
/// allocating — byte-identical to util::hex_encode over the same bytes.
void append_hex_fingerprint(std::string& out, const scan::CertFingerprint& fp);

/// Renders the kRevocationInfo response body — two lines
/// ("fingerprint: <hex>\n" "revocation: <status>\n") appended without
/// heap allocation beyond growing `out`. Kept separate from the kCertInfo
/// rendering so existing clients' parsers never see a new line appear.
void render_revocation_into(const CertKnowledge& knowledge, std::string& out);

}  // namespace sm::notary
