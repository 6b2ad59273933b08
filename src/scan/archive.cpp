#include "scan/archive.h"

#include <stdexcept>
#include <utility>

namespace sm::scan {

CertId CertTable::push_back(CertRecord&& record) {
  const auto id = static_cast<CertId>(size());
  if (tail_.empty()) tail_.reserve(kCertChunk);
  tail_.push_back(std::move(record));
  if (tail_.size() == kCertChunk) {
    full_.push_back(std::make_shared<const Chunk>(std::move(tail_)));
    tail_ = Chunk();
  }
  return id;
}

void ScanArchive::catch_up_intern_table() {
  for (; interned_.indexed < certs_.size(); ++interned_.indexed) {
    const auto id = static_cast<CertId>(interned_.indexed);
    interned_.ids.emplace(certs_[id].fingerprint, id);
  }
}

template <typename Record>
CertId ScanArchive::intern_impl(Record&& record) {
  catch_up_intern_table();
  const auto [it, inserted] = interned_.ids.try_emplace(
      record.fingerprint, static_cast<CertId>(certs_.size()));
  if (!inserted) return it->second;
  certs_.push_back(CertRecord(std::forward<Record>(record)));
  ++interned_.indexed;
  return it->second;
}

CertId ScanArchive::intern(const CertRecord& record) {
  return intern_impl(record);
}

CertId ScanArchive::intern(CertRecord&& record) {
  return intern_impl(std::move(record));
}

bool ScanArchive::find(const CertFingerprint& fingerprint, CertId& out) {
  catch_up_intern_table();
  const auto it = interned_.ids.find(fingerprint);
  if (it == interned_.ids.end()) return false;
  out = it->second;
  return true;
}

std::size_t ScanArchive::begin_scan(const ScanEvent& event) {
  if (!scans_.empty() && event.start < scans_.back().event.start) {
    throw std::logic_error("scans must be appended chronologically");
  }
  scans_.push_back(ScanData{event, {}});
  return scans_.size() - 1;
}

void ScanArchive::add_observation(std::size_t scan_index, CertId cert,
                                  std::uint32_t ip, DeviceId device) {
  scans_.at(scan_index).observations.push_back(Observation{cert, ip, device});
  ++observation_count_;
}

std::size_t ScanArchive::add_scan(ScanData&& scan) {
  if (!scans_.empty() && scan.event.start < scans_.back().event.start) {
    throw std::logic_error("scans must be appended chronologically");
  }
  observation_count_ += scan.observations.size();
  scans_.push_back(std::move(scan));
  return scans_.size() - 1;
}

void ScanArchive::reserve_certs(std::size_t n) {
  interned_.ids.reserve(n);
}

double CertLifetime::days(const std::vector<ScanData>& scans) const {
  if (scans_seen == 0) return 0;
  if (first_scan == last_scan) return 1;
  const double seconds = static_cast<double>(scans[last_scan].event.start -
                                             scans[first_scan].event.start);
  return seconds / static_cast<double>(util::kSecondsPerDay) + 1.0;
}

std::vector<CertLifetime> compute_lifetimes(const ScanArchive& archive) {
  std::vector<CertLifetime> out(archive.certs().size());
  std::vector<bool> seen(archive.certs().size(), false);
  const auto& scans = archive.scans();
  for (std::uint32_t scan_index = 0; scan_index < scans.size(); ++scan_index) {
    // A certificate may appear several times in one scan (multiple IPs);
    // count the scan once via a per-scan first-touch check on last_scan.
    for (const Observation& obs : scans[scan_index].observations) {
      CertLifetime& life = out[obs.cert];
      if (!seen[obs.cert]) {
        seen[obs.cert] = true;
        life.first_scan = scan_index;
        life.last_scan = scan_index;
        life.scans_seen = 1;
      } else if (life.last_scan != scan_index) {
        life.last_scan = scan_index;
        ++life.scans_seen;
      }
    }
  }
  return out;
}

}  // namespace sm::scan
