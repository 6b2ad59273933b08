#include "corpus/live.h"

#include <algorithm>
#include <istream>
#include <utility>

#include "scan/archive_io.h"

namespace sm::corpus {
namespace {

constexpr scan::CertId kUnmapped = scan::CertId{0xffffffff};

bool strictly_increasing(const std::vector<scan::ScanData>& scans) {
  for (std::size_t i = 1; i < scans.size(); ++i) {
    if (scans[i].event.start <= scans[i - 1].event.start) return false;
  }
  return true;
}

/// Parses one SMAR stream into cert/scan vectors without touching any
/// corpus state; the error string is set on failure. Shared by
/// append_segment and merge_slice so both keep the parse-everything-
/// before-mutating discipline.
bool parse_smar(std::istream& in, const char* what,
                std::vector<scan::CertRecord>& certs,
                std::vector<scan::ScanData>& scans, std::string& error) {
  scan::ArchiveReader reader(in);
  if (!reader.ok()) {
    error = std::string(what) + ": bad archive header";
    return false;
  }
  certs.reserve(reader.cert_count());
  if (!reader.for_each_cert([&](scan::CertId, scan::CertRecord&& cert) {
        certs.push_back(std::move(cert));
      })) {
    error = std::string(what) + ": corrupt certificate section";
    return false;
  }
  if (!reader.for_each_scan(
          [&](scan::ScanData&& scan) { scans.push_back(std::move(scan)); })) {
    error = std::string(what) + ": corrupt scan section";
    return false;
  }
  for (const scan::ScanData& scan : scans) {
    for (const scan::Observation& obs : scan.observations) {
      if (obs.cert >= certs.size()) {
        error = std::string(what) + ": observation references unknown cert";
        return false;
      }
    }
  }
  return true;
}

/// Every pre-existing certificate marked in `changed`, then every id from
/// changed.size() up to `cert_count` (the newly interned ones).
std::vector<scan::CertId> make_delta(const std::vector<char>& changed,
                                     std::size_t cert_count) {
  std::vector<scan::CertId> delta;
  for (std::size_t i = 0; i < cert_count; ++i) {
    if (i >= changed.size() || changed[i] != 0) {
      delta.push_back(static_cast<scan::CertId>(i));
    }
  }
  return delta;
}

}  // namespace

struct LiveCorpus::PendingPublish {
  std::shared_ptr<scan::ScanArchive> archive;
  std::vector<scan::CertId> delta;
  /// The current epoch's spine when `archive` extends its archive (an
  /// append); null builds the spine cold.
  const CorpusIndex* prefix = nullptr;
};

void LiveCorpus::publish(PendingPublish&& pending) {
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  auto snap = std::make_shared<LiveSnapshot>();
  snap->epoch = cur ? cur->epoch + 1 : 0;
  // Build the new spine (the expensive part — readers keep serving the
  // old epoch throughout) and publish. The release store pairs with
  // snapshot()'s acquire load.
  const CorpusOptions options{routing_, pool_};
  snap->spine =
      pending.prefix != nullptr
          ? std::make_shared<const CorpusIndex>(*pending.archive,
                                                *pending.prefix, options)
          : std::make_shared<const CorpusIndex>(*pending.archive, options);
  snap->archive = std::move(pending.archive);
  snap->delta = std::move(pending.delta);
  snap->statuses = statuses_;
  snap->key_counts = key_counts_;
  snapshot_.store(std::move(snap), std::memory_order_release);
}

void LiveCorpus::index_certs(const scan::ScanArchive& archive) {
  ids_.clear();
  keys_.clear();
  ids_.reserve(archive.certs().size());
  keys_.reserve(archive.certs().size());
  for (std::size_t i = 0; i < archive.certs().size(); ++i) {
    const auto id = static_cast<scan::CertId>(i);
    ids_.emplace(archive.cert(id).fingerprint, id);
    keys_[archive.cert(id).key_fingerprint].push_back(id);
  }
}

std::vector<scan::CertId> LiveCorpus::intern_certs(
    std::vector<scan::CertRecord>& certs, scan::ScanArchive& next,
    std::vector<char>& changed, AppendResult& result) {
  // Intern order follows the incoming id order, so the resulting global
  // ids are deterministic. New certificates append to `next` without a
  // dedup lookup of its own: ids_ is the dedup table.
  std::vector<scan::CertId> global_id(certs.size());
  for (std::size_t i = 0; i < certs.size(); ++i) {
    const auto [it, inserted] = ids_.try_emplace(
        certs[i].fingerprint, static_cast<scan::CertId>(next.certs().size()));
    global_id[i] = it->second;
    if (!inserted) continue;
    ++result.new_certs;
    // A new holder of an existing SPKI raises the key-sharing degree of
    // every certificate already holding it. Holder ids ascend, so a last
    // holder past the old certificates means this call marked them.
    std::vector<scan::CertId>& holders = keys_[certs[i].key_fingerprint];
    if (holders.empty() || holders.back() < changed.size()) {
      for (const scan::CertId peer : holders) changed[peer] = 1;
    }
    holders.push_back(it->second);
    next.append_cert(std::move(certs[i]));
  }
  return global_id;
}

void LiveCorpus::apply_statuses(const RevocationStatusMap* statuses,
                                std::vector<char>& changed) {
  // A changed status alters a certificate's rendered knowledge, so
  // already-known certs whose status moved join the delta exactly like
  // certs the scans re-observed.
  if (statuses == nullptr || statuses->empty()) return;
  auto next_statuses = statuses_
                           ? std::make_shared<RevocationStatusMap>(*statuses_)
                           : std::make_shared<RevocationStatusMap>();
  bool dirty = false;
  for (const auto& [fp, status] : *statuses) {
    const auto it = next_statuses->find(fp);
    if (it != next_statuses->end() && it->second == status) continue;
    (*next_statuses)[fp] = status;
    dirty = true;
    const auto id = ids_.find(fp);
    if (id != ids_.end() && id->second < changed.size()) {
      changed[id->second] = 1;
    }
  }
  if (dirty) statuses_ = std::move(next_statuses);
}

LiveCorpus::LiveCorpus(scan::ScanArchive initial,
                       const net::RoutingHistory* routing,
                       util::ThreadPool* pool, RevocationStatusMap statuses,
                       KeyCountMap key_counts)
    : routing_(routing), pool_(pool) {
  if (!statuses.empty()) {
    statuses_ =
        std::make_shared<const RevocationStatusMap>(std::move(statuses));
  }
  if (!key_counts.empty()) {
    key_counts_ = std::make_shared<const KeyCountMap>(std::move(key_counts));
  }
  auto archive = std::make_shared<scan::ScanArchive>(std::move(initial));
  index_certs(*archive);
  publish(PendingPublish{std::move(archive), {}});
}

AppendResult LiveCorpus::append_segment(std::istream& in,
                                        const RevocationStatusMap* statuses) {
  std::lock_guard lock(append_mutex_);
  AppendResult result;
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();

  // Parse and validate the whole segment up front: any framing/checksum/
  // ordering failure must leave the published snapshot and all ingest
  // state untouched, so nothing is interned until the reader has
  // validated every byte. Nothing below can fail.
  std::vector<scan::CertRecord> segment_certs;
  std::vector<scan::ScanData> segment_scans;
  if (!parse_smar(in, "segment", segment_certs, segment_scans,
                  result.error)) {
    return result;
  }
  if (segment_scans.empty()) {
    result.error = "segment: no scans";
    return result;
  }
  // Chronology: the archive's own append path rejects out-of-order
  // scans with an exception; pre-check so a stale segment is a clean
  // error instead.
  if (!cur->archive->scans().empty() &&
      segment_scans.front().event.start <
          cur->archive->scans().back().event.start) {
    result.error = "segment: scans predate the current corpus";
    return result;
  }

  // The new epoch's archive shares every full certificate chunk with the
  // current one (which every snapshot already handed out keeps) and
  // copies its scan list; the segment's certificates are moved in.
  auto next = std::make_shared<scan::ScanArchive>(*cur->archive);
  const std::size_t old_cert_count = next->certs().size();
  std::vector<char> changed(old_cert_count, 0);
  const std::vector<scan::CertId> global_id =
      intern_certs(segment_certs, *next, changed, result);

  // Append the scans with observations remapped to global ids; every
  // observed certificate's history (and stats row) changes.
  for (scan::ScanData& scan : segment_scans) {
    for (scan::Observation& obs : scan.observations) {
      obs.cert = global_id[obs.cert];
      if (obs.cert < old_cert_count) changed[obs.cert] = 1;
    }
    result.observations += scan.observations.size();
    next->add_scan(std::move(scan));
    ++result.scans_appended;
  }
  apply_statuses(statuses, changed);
  // Injected full-corpus degrees: every newly interned certificate is a
  // new holder of its key corpus-wide.
  if (key_counts_ != nullptr && result.new_certs > 0) {
    auto next_counts = std::make_shared<KeyCountMap>(*key_counts_);
    for (std::size_t id = old_cert_count; id < next->certs().size(); ++id) {
      ++(*next_counts)[next->cert(static_cast<scan::CertId>(id))
                           .key_fingerprint];
    }
    key_counts_ = std::move(next_counts);
  }

  std::vector<scan::CertId> delta = make_delta(changed, next->certs().size());
  result.delta_size = delta.size();
  // The new archive extends the current one, so the spine extends too.
  publish(PendingPublish{std::move(next), std::move(delta), cur->spine.get()});
  result.ok = true;
  return result;
}

AppendResult LiveCorpus::merge_slice(std::istream& in,
                                     const KeyCountMap* key_counts,
                                     const RevocationStatusMap* statuses) {
  std::lock_guard lock(append_mutex_);
  AppendResult result;
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();

  std::vector<scan::CertRecord> slice_certs;
  std::vector<scan::ScanData> slice_scans;
  if (!parse_smar(in, "slice", slice_certs, slice_scans, result.error)) {
    return result;
  }
  // Scans merge by start time, so starts must identify scans uniquely on
  // both sides of the merge.
  if (!strictly_increasing(slice_scans)) {
    result.error = "slice: scan start times are not strictly increasing";
    return result;
  }
  if (!strictly_increasing(cur->archive->scans())) {
    result.error =
        "corpus: scan start times are not strictly increasing; cannot "
        "merge by timeline";
    return result;
  }

  // The certificate table is shared and appended to, so existing ids
  // stay stable; the scan list is rebuilt, because merging appends
  // observations into existing scans.
  auto next = std::make_shared<scan::ScanArchive>(cur->archive->certs());
  const std::size_t old_cert_count = next->certs().size();
  std::vector<char> changed(old_cert_count, 0);
  const std::vector<scan::CertId> global_id =
      intern_certs(slice_certs, *next, changed, result);

  // Two-pointer walk over both timelines in start order. A start present
  // on both sides is the same scan: local observations first, then the
  // slice's (remapped) — every per-cert aggregate downstream is
  // order-independent, so concatenation preserves byte-identical
  // renders. A start only the slice knows becomes a new scan.
  const std::vector<scan::ScanData>& cur_scans = cur->archive->scans();
  std::size_t ci = 0;
  std::size_t si = 0;
  while (ci < cur_scans.size() || si < slice_scans.size()) {
    const bool have_cur = ci < cur_scans.size();
    const bool have_slice = si < slice_scans.size();
    const bool take_cur =
        have_cur && (!have_slice || cur_scans[ci].event.start <=
                                        slice_scans[si].event.start);
    const bool take_slice =
        have_slice && (!have_cur || slice_scans[si].event.start <=
                                        cur_scans[ci].event.start);
    scan::ScanData merged;
    if (take_cur) {
      merged.event = cur_scans[ci].event;
      merged.observations = cur_scans[ci].observations;
      ++ci;
    } else {
      merged.event = slice_scans[si].event;
      ++result.scans_appended;
    }
    if (take_slice) {
      merged.observations.reserve(merged.observations.size() +
                                  slice_scans[si].observations.size());
      for (const scan::Observation& obs : slice_scans[si].observations) {
        const scan::CertId id = global_id[obs.cert];
        merged.observations.push_back({id, obs.ip, obs.device});
        if (id < old_cert_count) changed[id] = 1;
        ++result.observations;
      }
      ++si;
    }
    next->add_scan(std::move(merged));
  }

  // Sidecars: statuses overwrite (the sender's are authoritative for its
  // certs), degrees take the larger value — both sides derive from the
  // same full corpus, so the larger one is the fresher count. A degree
  // change re-renders every local holder of that key.
  apply_statuses(statuses, changed);
  if (key_counts != nullptr && !key_counts->empty()) {
    auto next_counts = key_counts_
                           ? std::make_shared<KeyCountMap>(*key_counts_)
                           : std::make_shared<KeyCountMap>();
    for (const auto& [key, count] : *key_counts) {
      std::uint32_t& slot = (*next_counts)[key];
      if (count > slot) {
        slot = count;
        const auto it = keys_.find(key);
        if (it != keys_.end()) {
          for (const scan::CertId peer : it->second) {
            if (peer < old_cert_count) changed[peer] = 1;
          }
        }
      }
    }
    key_counts_ = std::move(next_counts);
  }

  std::vector<scan::CertId> delta = make_delta(changed, next->certs().size());
  result.delta_size = delta.size();
  // Observations joined existing scans: the spine is built cold.
  publish(PendingPublish{std::move(next), std::move(delta)});
  result.ok = true;
  return result;
}

AppendResult LiveCorpus::retire_prefix(std::uint8_t lo, std::uint8_t hi) {
  std::lock_guard lock(append_mutex_);
  AppendResult result;
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  const scan::ScanArchive& full = *cur->archive;

  auto next = std::make_shared<scan::ScanArchive>();
  std::vector<scan::CertId> local(full.certs().size(), kUnmapped);
  for (std::size_t id = 0; id < full.certs().size(); ++id) {
    const scan::CertRecord& cert = full.cert(static_cast<scan::CertId>(id));
    if (cert.fingerprint[0] >= lo && cert.fingerprint[0] <= hi) continue;
    local[id] = next->append_cert(scan::CertRecord(cert));
  }
  for (const scan::ScanData& scan : full.scans()) {
    scan::ScanData copy;
    copy.event = scan.event;
    for (const scan::Observation& obs : scan.observations) {
      if (local[obs.cert] == kUnmapped) continue;
      copy.observations.push_back({local[obs.cert], obs.ip, obs.device});
    }
    next->add_scan(std::move(copy));
  }

  // Ids were remapped: rebuild the dedup and key maps and invalidate
  // everything — the delta spans every id either epoch ever used, so no
  // stale render survives under a reused id.
  index_certs(*next);
  if (statuses_) {
    auto next_statuses = std::make_shared<RevocationStatusMap>();
    next_statuses->reserve(statuses_->size());
    for (const auto& [fp, status] : *statuses_) {
      if (fp[0] >= lo && fp[0] <= hi) continue;
      next_statuses->emplace(fp, status);
    }
    statuses_ = next_statuses->empty() ? nullptr : std::move(next_statuses);
  }
  // key_counts_ stays: full-corpus degrees are true regardless of which
  // slice this daemon serves.

  std::vector<scan::CertId> delta = make_delta(
      {}, std::max(full.certs().size(), next->certs().size()));
  result.delta_size = delta.size();

  publish(PendingPublish{std::move(next), std::move(delta)});
  result.ok = true;
  return result;
}

scan::ScanArchive extract_segment(const scan::ScanArchive& full,
                                  std::size_t first, std::size_t last) {
  scan::ScanArchive segment;
  last = std::min(last, full.scans().size());
  // Dense re-intern: only the certificates these scans observe, in
  // first-observation order.
  std::vector<scan::CertId> local(full.certs().size(), kUnmapped);
  for (std::size_t s = first; s < last; ++s) {
    const scan::ScanData& scan = full.scans()[s];
    scan::ScanData copy;
    copy.event = scan.event;
    copy.observations.reserve(scan.observations.size());
    for (const scan::Observation& obs : scan.observations) {
      if (local[obs.cert] == kUnmapped) {
        local[obs.cert] = segment.intern(full.cert(obs.cert));
      }
      copy.observations.push_back({local[obs.cert], obs.ip, obs.device});
    }
    segment.add_scan(std::move(copy));
  }
  return segment;
}

scan::ScanArchive extract_prefix_slice(const scan::ScanArchive& full,
                                       std::uint8_t lo, std::uint8_t hi,
                                       std::size_t first_scan) {
  scan::ScanArchive slice;
  // Intern pass first, in original id order: a shard must know every
  // in-range certificate the full corpus interned, observed or not.
  std::vector<scan::CertId> local(full.certs().size(), kUnmapped);
  for (std::size_t id = 0; id < full.certs().size(); ++id) {
    const scan::CertRecord& cert = full.cert(static_cast<scan::CertId>(id));
    if (cert.fingerprint[0] < lo || cert.fingerprint[0] > hi) continue;
    local[id] = slice.intern(cert);
  }
  for (std::size_t s = first_scan; s < full.scans().size(); ++s) {
    const scan::ScanData& scan = full.scans()[s];
    scan::ScanData copy;
    copy.event = scan.event;
    for (const scan::Observation& obs : scan.observations) {
      if (local[obs.cert] == kUnmapped) continue;
      copy.observations.push_back({local[obs.cert], obs.ip, obs.device});
    }
    slice.add_scan(std::move(copy));
  }
  return slice;
}

}  // namespace sm::corpus
