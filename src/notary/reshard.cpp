#include "notary/reshard.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "netio/blocking_client.h"
#include "scan/archive_io.h"

namespace sm::notary {
namespace {

void put_u64le(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

std::uint64_t get_u64le(const char* p) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = value << 8 | static_cast<unsigned char>(p[i]);
  }
  return value;
}

/// Highest valid RevocationStatus byte on the wire.
constexpr std::uint8_t kMaxStatusByte =
    static_cast<std::uint8_t>(pki::RevocationStatus::kUnknown);

/// One request on the outbound slice stream, insisting on a kSliceInfo
/// answer (a kError payload becomes the error message). The transfer is
/// a bulk copy, not a latency path, so one blocking connection with
/// strict request/response is all it needs.
bool expect_info(netio::BlockingClient& client, netio::FrameType type,
                 std::string_view payload, std::string& info,
                 std::string& error) {
  netio::Frame response;
  if (!client.call(type, payload, response)) {
    error = "slice send: " + client.error();
    return false;
  }
  if (response.type != netio::FrameType::kSliceInfo) {
    error = "slice send: target refused: " + response.payload;
    return false;
  }
  info = std::move(response.payload);
  return true;
}

}  // namespace

std::string serialize_slice_sidecar(
    const corpus::KeyCountMap& key_counts,
    const corpus::RevocationStatusMap& statuses) {
  std::string out;
  out.reserve(8 + key_counts.size() * 12 + statuses.size() * 17);
  netio::put_u32le(out, static_cast<std::uint32_t>(key_counts.size()));
  for (const auto& [key, count] : key_counts) {
    put_u64le(out, key);
    netio::put_u32le(out, count);
  }
  netio::put_u32le(out, static_cast<std::uint32_t>(statuses.size()));
  for (const auto& [fp, status] : statuses) {
    out.append(reinterpret_cast<const char*>(fp.data()), fp.size());
    out.push_back(static_cast<char>(status));
  }
  return out;
}

bool parse_slice_sidecar(std::string_view payload,
                         corpus::KeyCountMap& key_counts,
                         corpus::RevocationStatusMap& statuses,
                         std::string& error) {
  const char* p = payload.data();
  std::size_t left = payload.size();
  const auto need = [&](std::size_t n) {
    if (left < n) {
      error = "slice sidecar truncated";
      return false;
    }
    return true;
  };
  if (!need(4)) return false;
  const std::uint32_t nkeys = netio::get_u32le(p);
  p += 4;
  left -= 4;
  if (!need(static_cast<std::size_t>(nkeys) * 12)) return false;
  key_counts.reserve(nkeys);
  for (std::uint32_t i = 0; i < nkeys; ++i) {
    const scan::KeyFingerprint key = get_u64le(p);
    key_counts[key] = netio::get_u32le(p + 8);
    p += 12;
    left -= 12;
  }
  if (!need(4)) return false;
  const std::uint32_t nstatus = netio::get_u32le(p);
  p += 4;
  left -= 4;
  if (!need(static_cast<std::size_t>(nstatus) * 17)) return false;
  statuses.reserve(nstatus);
  for (std::uint32_t i = 0; i < nstatus; ++i) {
    scan::CertFingerprint fp;
    std::memcpy(fp.data(), p, fp.size());
    const std::uint8_t status = static_cast<std::uint8_t>(p[16]);
    if (status > kMaxStatusByte) {
      error = "slice sidecar carries an unknown revocation status byte";
      return false;
    }
    statuses[fp] = static_cast<pki::RevocationStatus>(status);
    p += 17;
    left -= 17;
  }
  if (left != 0) {
    error = "slice sidecar has trailing bytes";
    return false;
  }
  return true;
}

std::shared_ptr<const NotaryIndex> build_live_index(
    const corpus::LiveSnapshot& snap, util::ThreadPool* pool,
    const std::vector<std::vector<scan::CertId>>* device_groups) {
  NotaryIndexOptions options;
  options.pool = pool;
  options.device_groups = device_groups;
  if (snap.key_counts) options.key_counts = snap.key_counts.get();
  if (snap.statuses) options.revocation_statuses = snap.statuses.get();
  return std::make_shared<const NotaryIndex>(*snap.spine, options);
}

void publish_live_snapshot(const corpus::LiveSnapshot& snap,
                           NotaryService& service, util::ThreadPool* pool) {
  service.publish(build_live_index(snap, pool), snap.delta);
}

struct ReshardHost::Impl {
  corpus::LiveCorpus& live;
  NotaryService& service;
  ReshardHostOptions options;

  /// One inbound transfer at a time: the slot is tiny state, the mutex
  /// is held across the kSliceDone merge so a racing kSliceBegin waits
  /// (and then finds the slot free or busy, never half-merged).
  std::mutex transfer_mutex;
  bool transfer_active = false;
  std::uint8_t transfer_lo = 0;
  std::uint8_t transfer_hi = 0;
  std::string transfer_sidecar;
  std::string transfer_smar;

  Impl(corpus::LiveCorpus& l, NotaryService& s, ReshardHostOptions o)
      : live(l), service(s), options(o) {}

  void reply_info(std::string& out, const std::string& text) {
    netio::encode_frame_into(out, netio::FrameType::kSliceInfo, text);
  }

  void reply_error(std::string& out, const std::string& reason) {
    netio::encode_frame_into(out, netio::FrameType::kError, reason);
  }

  void clear_transfer() {
    transfer_active = false;
    transfer_sidecar.clear();
    transfer_sidecar.shrink_to_fit();
    transfer_smar.clear();
    transfer_smar.shrink_to_fit();
  }

  void handle_begin(std::string_view payload, std::string& out) {
    if (payload.size() != 2) {
      reply_error(out, "kSliceBegin payload must be the two range bytes");
      return;
    }
    const std::uint8_t lo = static_cast<std::uint8_t>(payload[0]);
    const std::uint8_t hi = static_cast<std::uint8_t>(payload[1]);
    if (lo > hi) {
      reply_error(out, "kSliceBegin range is inverted");
      return;
    }
    std::lock_guard lock(transfer_mutex);
    if (transfer_active) {
      reply_error(out, "another slice transfer is in progress");
      return;
    }
    transfer_active = true;
    transfer_lo = lo;
    transfer_hi = hi;
    transfer_sidecar.clear();
    transfer_smar.clear();
    reply_info(out, "ready");
  }

  void handle_segment(std::string_view payload, std::string& out) {
    if (payload.empty()) {
      reply_error(out, "kSliceSegment payload must carry a stream id");
      return;
    }
    std::lock_guard lock(transfer_mutex);
    if (!transfer_active) {
      reply_error(out, "no slice transfer in progress");
      return;
    }
    const std::uint8_t stream = static_cast<std::uint8_t>(payload[0]);
    if (stream > 1) {
      clear_transfer();
      reply_error(out, "unknown slice stream id");
      return;
    }
    std::string& buffer = stream == 0 ? transfer_sidecar : transfer_smar;
    if (transfer_sidecar.size() + transfer_smar.size() + payload.size() - 1 >
        options.max_transfer_bytes) {
      clear_transfer();
      reply_error(out, "slice transfer exceeds the size ceiling");
      return;
    }
    buffer.append(payload.data() + 1, payload.size() - 1);
    reply_info(out, "ok");
  }

  void handle_done(std::string& out) {
    std::lock_guard lock(transfer_mutex);
    if (!transfer_active) {
      reply_error(out, "no slice transfer in progress");
      return;
    }
    corpus::KeyCountMap key_counts;
    corpus::RevocationStatusMap statuses;
    std::string error;
    if (!parse_slice_sidecar(transfer_sidecar, key_counts, statuses,
                             error)) {
      clear_transfer();
      reply_error(out, error);
      return;
    }
    std::istringstream smar(std::move(transfer_smar));
    const corpus::AppendResult result =
        live.merge_slice(smar, &key_counts, &statuses);
    const std::uint8_t lo = transfer_lo;
    const std::uint8_t hi = transfer_hi;
    clear_transfer();
    if (!result.ok) {
      reply_error(out, result.error);
      return;
    }
    const auto snap = live.snapshot();
    publish_live_snapshot(*snap, service, options.pool);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "merged %u-%u epoch %" PRIu64 " new-certs %zu "
                  "scans-added %zu observations %zu",
                  lo, hi, snap->epoch, result.new_certs,
                  result.scans_appended, result.observations);
    reply_info(out, buf);
  }

  void handle_retire(std::string_view payload, std::string& out) {
    if (payload.size() != 2) {
      reply_error(out, "kSliceRetire payload must be the two range bytes");
      return;
    }
    const std::uint8_t lo = static_cast<std::uint8_t>(payload[0]);
    const std::uint8_t hi = static_cast<std::uint8_t>(payload[1]);
    if (lo > hi) {
      reply_error(out, "kSliceRetire range is inverted");
      return;
    }
    const corpus::AppendResult result = live.retire_prefix(lo, hi);
    if (!result.ok) {
      reply_error(out, result.error);
      return;
    }
    const auto snap = live.snapshot();
    publish_live_snapshot(*snap, service, options.pool);
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "retired %u-%u epoch %" PRIu64 " certs %zu", lo, hi,
                  snap->epoch, snap->archive->certs().size());
    reply_info(out, buf);
  }

  /// Builds the sidecar blob for one outbound round: degrees and
  /// statuses for the range's certificates, from the snapshot's injected
  /// maps when present (a shard) or the spine's key-degree column (an
  /// unsharded corpus IS the full corpus, so its local degree is the full
  /// degree).
  std::string build_sidecar(const corpus::LiveSnapshot& snap,
                            std::uint8_t lo, std::uint8_t hi) {
    corpus::KeyCountMap counts;
    corpus::RevocationStatusMap statuses;
    const scan::CertTable& certs = snap.archive->certs();
    for (std::size_t id = 0; id < certs.size(); ++id) {
      const scan::CertRecord& cert = certs[id];
      if (cert.fingerprint[0] < lo || cert.fingerprint[0] > hi) continue;
      if (snap.key_counts) {
        const auto it = snap.key_counts->find(cert.key_fingerprint);
        if (it != snap.key_counts->end()) {
          counts[cert.key_fingerprint] = it->second;
        }
      } else {
        counts[cert.key_fingerprint] =
            snap.spine->key_degree(static_cast<scan::CertId>(id));
      }
      if (snap.statuses) {
        const auto it = snap.statuses->find(cert.fingerprint);
        if (it != snap.statuses->end()) {
          statuses[cert.fingerprint] = it->second;
        }
      }
    }
    return serialize_slice_sidecar(counts, statuses);
  }

  bool stream_chunks(netio::BlockingClient& client, std::uint8_t stream,
                     std::string_view bytes, std::string& error) {
    std::string info;
    std::size_t offset = 0;
    do {
      const std::size_t n =
          std::min(options.chunk_bytes, bytes.size() - offset);
      std::string payload;
      payload.reserve(n + 1);
      payload.push_back(static_cast<char>(stream));
      payload.append(bytes.data() + offset, n);
      if (!expect_info(client, netio::FrameType::kSliceSegment, payload,
                       info, error)) {
        return false;
      }
      offset += n;
    } while (offset < bytes.size());
    return true;
  }

  void handle_send(std::string_view payload, std::string& out) {
    // Payload: u8 lo, u8 hi, u16le port, u8 host length, host bytes.
    if (payload.size() < 5) {
      reply_error(out, "kSliceSend payload truncated");
      return;
    }
    const std::uint8_t lo = static_cast<std::uint8_t>(payload[0]);
    const std::uint8_t hi = static_cast<std::uint8_t>(payload[1]);
    netio::Endpoint target;
    target.port = static_cast<std::uint16_t>(
        static_cast<unsigned char>(payload[2]) |
        static_cast<unsigned char>(payload[3]) << 8);
    const std::size_t host_len = static_cast<unsigned char>(payload[4]);
    if (lo > hi || target.port == 0 || host_len == 0 ||
        payload.size() != 5 + host_len) {
      reply_error(out, "kSliceSend payload malformed");
      return;
    }
    target.host.assign(payload.data() + 5, host_len);

    std::string error;
    netio::BlockingClient client;
    if (!client.connect(target, options.io_timeout_ms)) {
      reply_error(out, "slice send: " + client.error());
      return;
    }

    // The catch-up loop: stream a snapshot's worth, then re-snapshot; a
    // round that finds no new scans means the receiver is current.
    const char range[2] = {static_cast<char>(lo), static_cast<char>(hi)};
    std::size_t sent_scans = 0;
    std::size_t sent_certs = 0;
    int rounds = 0;
    std::string last_merge_info;
    for (;;) {
      const auto snap = live.snapshot();
      const std::size_t scan_count = snap->archive->scans().size();
      if (rounds > 0 && scan_count <= sent_scans) break;
      if (rounds >= options.max_rounds) {
        reply_error(out,
                    "slice send: corpus kept growing past the catch-up "
                    "round limit");
        return;
      }
      const scan::ScanArchive slice = corpus::extract_prefix_slice(
          *snap->archive, lo, hi, sent_scans);
      std::ostringstream smar;
      if (!scan::save_archive(slice, smar)) {
        reply_error(out, "slice send: archive serialization failed");
        return;
      }
      const std::string sidecar = build_sidecar(*snap, lo, hi);
      std::string info;
      if (!expect_info(client, netio::FrameType::kSliceBegin,
                       std::string_view(range, 2), info, error) ||
          !stream_chunks(client, 0, sidecar, error) ||
          !stream_chunks(client, 1, smar.view(), error) ||
          !expect_info(client, netio::FrameType::kSliceDone, {},
                       last_merge_info, error)) {
        reply_error(out, error);
        return;
      }
      sent_scans = scan_count;
      sent_certs = slice.certs().size();
      ++rounds;
    }
    char buf[224];
    std::snprintf(buf, sizeof buf,
                  "sent %u-%u to %s:%u rounds %d certs %zu scans %zu; "
                  "target: %s",
                  lo, hi, target.host.c_str(), target.port, rounds,
                  sent_certs, sent_scans, last_merge_info.c_str());
    reply_info(out, buf);
  }
};

ReshardHost::ReshardHost(corpus::LiveCorpus& live, NotaryService& service,
                         ReshardHostOptions options)
    : impl_(std::make_unique<Impl>(live, service, options)) {}

ReshardHost::~ReshardHost() = default;

bool ReshardHost::handle(netio::FrameType type, std::string_view payload,
                         std::string& out) {
  switch (type) {
    case netio::FrameType::kSliceBegin:
      impl_->handle_begin(payload, out);
      return true;
    case netio::FrameType::kSliceSegment:
      impl_->handle_segment(payload, out);
      return true;
    case netio::FrameType::kSliceDone:
      impl_->handle_done(out);
      return true;
    case netio::FrameType::kSliceSend:
      impl_->handle_send(payload, out);
      return true;
    case netio::FrameType::kSliceRetire:
      impl_->handle_retire(payload, out);
      return true;
    default:
      return false;
  }
}

}  // namespace sm::notary
