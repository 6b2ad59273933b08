#include "notary/index.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "util/datetime.h"
#include "util/thread_pool.h"

namespace sm::notary {

NotaryIndex::NotaryIndex(const corpus::CorpusIndex& corpus,
                         const NotaryIndexOptions& options) {
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::global();
  const scan::ScanArchive& archive = corpus.archive();
  const auto& certs = archive.certs();
  const auto& scans = archive.scans();
  size_ = certs.size();
  scan_count_ = scans.size();
  last_scan_start_ = scans.empty() ? 0 : scans.back().event.start;

  // A gather over the shared spine's columns: stats rows, key degrees
  // (unless the caller injects degrees computed over a larger corpus —
  // the prefix-shard case, where the slice under-counts) and the
  // archive's records. Each chunk of entries is allocated, filled and
  // bucketed by shard on one worker; the slots are index-addressed, so
  // the result is identical at every thread count.
  const std::size_t chunk_count = (size_ + kEntryChunk - 1) / kEntryChunk;
  entries_.resize(chunk_count);
  std::vector<std::array<std::vector<scan::CertId>, kShards>> buckets(
      chunk_count);
  pool.parallel_for(chunk_count, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const std::size_t first = c * kEntryChunk;
      entries_[c].resize(std::min(kEntryChunk, size_ - first));
      for (std::size_t i = first; i < first + entries_[c].size(); ++i) {
        const auto id = static_cast<scan::CertId>(i);
        const scan::CertRecord& record = certs[i];
        CertKnowledge& k = entries_[c][i - first];
        buckets[c][shard_of(record.fingerprint)].push_back(id);
        k.fingerprint = record.fingerprint;
        k.valid = record.valid;
        k.transvalid = record.transvalid;
        k.reason = record.invalid_reason;
        k.subject_cn = record.subject_cn;
        k.issuer_cn = record.issuer_cn;
        k.not_before = record.not_before;
        k.not_after = record.not_after;
        k.key_sharing = options.key_counts != nullptr
                            ? options.key_counts->at(record.key_fingerprint)
                            : corpus.key_degree(id);
        if (options.revocation_statuses != nullptr) {
          const auto rev =
              options.revocation_statuses->find(record.fingerprint);
          if (rev != options.revocation_statuses->end()) {
            k.revocation = rev->second;
          }
        }

        k.observations = corpus.observations(id).size();
        if (k.observations == 0) continue;  // interned but never observed
        const corpus::CertStats& stats = corpus.stats(id);
        k.scans_seen = stats.scans_seen;
        k.first_seen = scans[stats.first_scan].event.start;
        k.last_seen = scans[stats.last_scan].event.start;
        k.distinct_ips = stats.distinct_ips;
        k.distinct_slash24s = stats.distinct_slash24s;
        k.distinct_ases = stats.routed_as_count();
      }
    }
  });

  if (options.device_groups != nullptr) {
    const auto& groups = *options.device_groups;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const scan::CertId cert : groups[g]) {
        entries_[cert / kEntryChunk][cert % kEntryChunk].linked_device =
            static_cast<std::uint32_t>(g);
      }
    }
  }

  // Shard tables: the flat open-addressing arrays are built in parallel,
  // each shard by exactly one chunk, inserting its buckets in chunk
  // order. That insertion order (ascending cert id) plus a fixed probe
  // sequence make the table bytes identical at every thread count.
  pool.parallel_for(kShards, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      Shard& shard = shards_[s];
      std::size_t n = 0;
      for (const auto& chunk : buckets) n += chunk[s].size();
      if (n == 0) continue;  // empty shard: no table at all
      // Power-of-two capacity at most 70% full, so linear probes stay
      // short; min 8 slots keeps the mask math uniform for tiny shards.
      const std::size_t want = std::max<std::size_t>(8, n + (n * 3) / 7 + 1);
      shard.slots.assign(std::bit_ceil(want), Slot{});
      shard.mask = shard.slots.size() - 1;
      for (const auto& chunk : buckets) {
        for (const scan::CertId id : chunk[s]) {
          const scan::CertFingerprint& fp = certs[id].fingerprint;
          std::size_t i =
              static_cast<std::size_t>(probe_hash(fp)) & shard.mask;
          for (;; i = (i + 1) & shard.mask) {
            Slot& slot = shard.slots[i];
            if (slot.id == kEmptySlot) {
              slot.fp = fp;
              slot.id = id;
              ++shard.count;
              break;
            }
            // Duplicate fingerprint (interned archives should not
            // produce one): keep the first id, matching the old map's
            // emplace.
            if (slot.fp == fp) break;
          }
        }
      }
    }
  });
}

scan::CertId NotaryIndex::find(const scan::CertFingerprint& fp) const {
  const Shard& shard = shards_[shard_of(fp)];
  if (shard.slots.empty()) return kUnknownCert;
  std::size_t i = static_cast<std::size_t>(probe_hash(fp)) & shard.mask;
  for (;; i = (i + 1) & shard.mask) {
    const Slot& slot = shard.slots[i];
    if (slot.id == kEmptySlot || slot.fp == fp) return slot.id;
  }
}

namespace {

// Stack-buffer formatting helpers: the render path appends straight into
// the caller's buffer (a connection outbuf or the response cache arena
// staging) and must not allocate beyond growing that buffer.

void append_datetime(std::string& out, util::UnixTime t) {
  const util::CivilDateTime c = util::from_unix(t);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%04d-%02u-%02u %02u:%02u:%02u", c.year,
                c.month, c.day, c.hour, c.minute, c.second);
  out += buf;
}

}  // namespace

void append_hex_fingerprint(std::string& out,
                            const scan::CertFingerprint& fp) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (const std::uint8_t b : fp) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
}

void render_knowledge_into(const CertKnowledge& k, std::string& out) {
  const auto line = [&out](const char* key, std::string_view value) {
    out += key;
    out += ": ";
    out += value;
    out += '\n';
  };
  const auto num = [&line](const char* key, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    line(key, buf);
  };
  const auto datetime = [&out](const char* key, util::UnixTime t) {
    out += key;
    out += ": ";
    append_datetime(out, t);
    out += '\n';
  };

  out += "fingerprint: ";
  append_hex_fingerprint(out, k.fingerprint);
  out += '\n';
  if (k.valid) {
    line("status", k.transvalid ? "valid (transvalid)" : "valid");
  } else {
    out += "status: invalid (";
    out += pki::reason_cstr(k.reason);
    out += ")\n";
  }
  line("subject-cn", k.subject_cn);
  line("issuer-cn", k.issuer_cn);
  datetime("not-before", k.not_before);
  datetime("not-after", k.not_after);
  if (k.observations == 0) {
    line("first-seen", "never");
    line("last-seen", "never");
  } else {
    datetime("first-seen", k.first_seen);
    datetime("last-seen", k.last_seen);
  }
  num("scans-seen", k.scans_seen);
  num("observations", k.observations);
  num("distinct-ips", k.distinct_ips);
  num("distinct-slash24s", k.distinct_slash24s);
  num("distinct-ases", k.distinct_ases);
  num("key-sharing", k.key_sharing);
  if (k.linked_device == kNoLinkedDevice) {
    line("linked-device", "none");
  } else {
    num("linked-device", k.linked_device);
  }
}

std::string render_knowledge(const CertKnowledge& k) {
  std::string out;
  out.reserve(512);
  render_knowledge_into(k, out);
  return out;
}

void render_revocation_into(const CertKnowledge& k, std::string& out) {
  out += "fingerprint: ";
  append_hex_fingerprint(out, k.fingerprint);
  out += "\nrevocation: ";
  out += pki::revocation_status_cstr(k.revocation);
  out += '\n';
}

}  // namespace sm::notary
