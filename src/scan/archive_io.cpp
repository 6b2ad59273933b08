#include "scan/archive_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/thread_pool.h"

namespace sm::scan {

namespace {

constexpr char kMagic[4] = {'S', 'M', 'A', 'R'};

// Format limits shared by the writer and both loaders. The writer fails
// loudly on anything outside them (instead of silently truncating counts);
// the loaders reject before allocating, so a hostile or corrupted header
// cannot force a large allocation.
constexpr std::uint64_t kMaxStringBytes = 1u << 24;  // 16 MiB per string
constexpr std::uint64_t kMaxSanEntries = 1u << 16;
constexpr std::uint64_t kMaxCerts = 0xffffffffull;  // CertId is uint32
constexpr std::uint64_t kMaxScans = 1u << 20;
constexpr std::uint64_t kMaxFrameBytes = 1u << 30;  // 1 GiB per frame
constexpr std::uint64_t kMaxCertsPerFrame = 1u << 20;
constexpr std::uint64_t kCertsPerFrame = 8192;  // shard size we write
constexpr std::size_t kReadChunk = 1u << 20;    // incremental stream reads

constexpr std::size_t kObsBytes = 12;       // u32 cert + u32 ip + u32 device
constexpr std::size_t kScanHeaderBytes = 25;  // campaign + start + dur + count
constexpr std::uint64_t kMaxObsPerScan =
    (kMaxFrameBytes - kScanHeaderBytes) / kObsBytes;

// v2 frame types, in required stream order.
constexpr std::uint8_t kFrameHeader = 'H';
constexpr std::uint8_t kFrameCerts = 'C';
constexpr std::uint8_t kFrameScan = 'S';
constexpr std::uint8_t kFrameEnd = 'E';

// --- stream primitives -------------------------------------------------------

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return static_cast<std::size_t>(in.gcount()) == sizeof(value);
}

// Reads exactly `size` bytes into `out`, growing it incrementally so a
// hostile length claim cannot force a large allocation before the stream
// runs dry.
bool read_exact(std::istream& in, std::string& out, std::uint64_t size) {
  out.clear();
  while (size > 0) {
    const std::size_t step =
        static_cast<std::size_t>(std::min<std::uint64_t>(size, kReadChunk));
    const std::size_t old = out.size();
    out.resize(old + step);
    in.read(out.data() + old, static_cast<std::streamsize>(step));
    if (static_cast<std::size_t>(in.gcount()) != step) return false;
    size -= step;
  }
  return true;
}

// --- buffer (v2 frame payload) primitives ------------------------------------

template <typename T>
void put_buf(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_buf_string(std::string& out, const std::string& s) {
  put_buf<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// A bounds-checked view over one frame payload.
struct Cursor {
  const char* p;
  const char* end;

  explicit Cursor(const std::string& buf)
      : p(buf.data()), end(buf.data() + buf.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }
  bool done() const { return p == end; }

  template <typename T>
  bool get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&value, p, sizeof(T));
    p += sizeof(T);
    return true;
  }

  bool get_bytes(void* out, std::size_t size) {
    if (remaining() < size) return false;
    std::memcpy(out, p, size);
    p += size;
    return true;
  }

  bool get_string(std::string& s) {
    std::uint32_t len = 0;
    if (!get(len)) return false;
    if (len > kMaxStringBytes || len > remaining()) return false;
    s.assign(p, len);
    p += len;
    return true;
  }
};

// The same record-reading interface over a raw stream (the v1 path).
struct StreamSource {
  std::istream& in;

  template <typename T>
  bool get(T& value) {
    return read_pod(in, value);
  }

  bool get_bytes(void* out, std::size_t size) {
    in.read(static_cast<char*>(out), static_cast<std::streamsize>(size));
    return static_cast<std::size_t>(in.gcount()) == size;
  }

  bool get_string(std::string& s) {
    std::uint32_t len = 0;
    if (!get(len) || len > kMaxStringBytes) return false;
    return read_exact(in, s, len);
  }
};

// --- certificate record (shared by v1 stream and v2 frames) ------------------

bool cert_within_limits(const CertRecord& cert) {
  if (cert.san.size() > kMaxSanEntries) return false;
  const auto fits = [](const std::string& s) {
    return s.size() <= kMaxStringBytes;
  };
  for (const std::string& san : cert.san) {
    if (!fits(san)) return false;
  }
  return fits(cert.subject_cn) && fits(cert.issuer_cn) &&
         fits(cert.issuer_dn) && fits(cert.serial_hex) && fits(cert.aki_hex) &&
         fits(cert.crl_url) && fits(cert.aia_url) && fits(cert.ocsp_url) &&
         fits(cert.policy_oid);
}

std::uint64_t serialized_cert_bytes(const CertRecord& cert) {
  const auto str = [](const std::string& s) {
    return 4 + static_cast<std::uint64_t>(s.size());
  };
  std::uint64_t n = cert.fingerprint.size() + sizeof(cert.key_fingerprint) +
                    sizeof(cert.not_before) + sizeof(cert.not_after) +
                    sizeof(std::uint32_t) /* san count */ +
                    sizeof(cert.raw_version) + 2 /* flags + reason */;
  n += str(cert.subject_cn) + str(cert.issuer_cn) + str(cert.issuer_dn) +
       str(cert.serial_hex) + str(cert.aki_hex) + str(cert.crl_url) +
       str(cert.aia_url) + str(cert.ocsp_url) + str(cert.policy_oid);
  for (const std::string& san : cert.san) n += str(san);
  return n;
}

// Serializes one record. The byte layout is shared by v1 (records
// concatenated directly in the stream) and v2 (records inside checksummed
// cert frames), which is what keeps the two writers byte-compatible at the
// record level.
void append_cert(std::string& out, const CertRecord& cert) {
  out.append(reinterpret_cast<const char*>(cert.fingerprint.data()),
             cert.fingerprint.size());
  put_buf(out, cert.key_fingerprint);
  put_buf_string(out, cert.subject_cn);
  put_buf_string(out, cert.issuer_cn);
  put_buf_string(out, cert.issuer_dn);
  put_buf_string(out, cert.serial_hex);
  put_buf(out, cert.not_before);
  put_buf(out, cert.not_after);
  put_buf<std::uint32_t>(out, static_cast<std::uint32_t>(cert.san.size()));
  for (const std::string& san : cert.san) put_buf_string(out, san);
  put_buf_string(out, cert.aki_hex);
  put_buf_string(out, cert.crl_url);
  put_buf_string(out, cert.aia_url);
  put_buf_string(out, cert.ocsp_url);
  put_buf_string(out, cert.policy_oid);
  put_buf(out, cert.raw_version);
  put_buf<std::uint8_t>(out, static_cast<std::uint8_t>(
                                 (cert.is_ca ? 1 : 0) | (cert.valid ? 2 : 0) |
                                 (cert.transvalid ? 4 : 0)));
  put_buf<std::uint8_t>(out, static_cast<std::uint8_t>(cert.invalid_reason));
}

template <typename Source>
bool read_cert(Source& src, CertRecord& cert) {
  std::uint32_t san_count = 0;
  std::uint8_t flags = 0, reason = 0;
  if (!src.get_bytes(cert.fingerprint.data(), cert.fingerprint.size()) ||
      !src.get(cert.key_fingerprint) || !src.get_string(cert.subject_cn) ||
      !src.get_string(cert.issuer_cn) || !src.get_string(cert.issuer_dn) ||
      !src.get_string(cert.serial_hex) || !src.get(cert.not_before) ||
      !src.get(cert.not_after) || !src.get(san_count)) {
    return false;
  }
  if (san_count > kMaxSanEntries) return false;
  cert.san.resize(san_count);
  for (std::string& san : cert.san) {
    if (!src.get_string(san)) return false;
  }
  if (!src.get_string(cert.aki_hex) || !src.get_string(cert.crl_url) ||
      !src.get_string(cert.aia_url) || !src.get_string(cert.ocsp_url) ||
      !src.get_string(cert.policy_oid) || !src.get(cert.raw_version) ||
      !src.get(flags) || !src.get(reason)) {
    return false;
  }
  if (flags > 7) return false;
  cert.is_ca = flags & 1;
  cert.valid = flags & 2;
  cert.transvalid = flags & 4;
  if (reason > static_cast<std::uint8_t>(pki::InvalidReason::kRevoked)) {
    return false;
  }
  cert.invalid_reason = static_cast<pki::InvalidReason>(reason);
  return true;
}

// --- v2 frames ---------------------------------------------------------------

struct RawFrame {
  std::uint8_t type = 0;
  std::string payload;
  std::uint32_t crc = 0;
};

// Reads one frame without verifying its checksum — verification runs in
// the (possibly parallel) parse stage.
bool read_frame(std::istream& in, RawFrame& frame) {
  std::uint64_t size = 0;
  if (!read_pod(in, frame.type) || !read_pod(in, size) || size > kMaxFrameBytes) {
    return false;
  }
  return read_exact(in, frame.payload, size) && read_pod(in, frame.crc);
}

bool frame_checksum_ok(const RawFrame& frame) {
  return util::crc32(frame.payload) == frame.crc;
}

void write_frame(std::ostream& out, std::uint8_t type,
                 const std::string& payload, std::uint32_t crc) {
  put(out, type);
  put<std::uint64_t>(out, payload.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  put(out, crc);
}

void append_scan(std::string& out, const ScanData& scan) {
  put_buf<std::uint8_t>(out, static_cast<std::uint8_t>(scan.event.campaign));
  put_buf(out, scan.event.start);
  put_buf(out, scan.event.duration_seconds);
  put_buf<std::uint64_t>(out, scan.observations.size());
  for (const Observation& obs : scan.observations) {
    put_buf(out, obs.cert);
    put_buf(out, obs.ip);
    put_buf(out, obs.device);
  }
}

// Parses a whole cert frame; `expected` is the chunk size implied by the
// header. Requires exact payload consumption.
bool parse_cert_frame(const RawFrame& frame, std::uint64_t expected,
                      std::vector<CertRecord>& out) {
  if (!frame_checksum_ok(frame)) return false;
  Cursor cursor(frame.payload);
  out.clear();
  for (std::uint64_t i = 0; i < expected; ++i) {
    CertRecord cert;
    if (!read_cert(cursor, cert)) return false;
    out.push_back(std::move(cert));
  }
  return cursor.done();
}

// Parses one scan frame, validating campaign, observation bounds, and cert
// indices against `cert_count`.
bool parse_scan_frame(const RawFrame& frame, std::uint64_t cert_count,
                      ScanData& out) {
  if (!frame_checksum_ok(frame)) return false;
  Cursor cursor(frame.payload);
  std::uint8_t campaign = 0;
  std::uint64_t obs_count = 0;
  if (!cursor.get(campaign) || campaign > 1 || !cursor.get(out.event.start) ||
      !cursor.get(out.event.duration_seconds) || !cursor.get(obs_count)) {
    return false;
  }
  out.event.campaign = static_cast<Campaign>(campaign);
  if (obs_count > cursor.remaining() / kObsBytes) return false;
  out.observations.resize(obs_count);
  for (Observation& obs : out.observations) {
    if (!cursor.get(obs.cert) || !cursor.get(obs.ip) ||
        !cursor.get(obs.device)) {
      return false;
    }
    if (obs.cert >= cert_count) return false;
  }
  return cursor.done();
}

// --- v1 writer/loader --------------------------------------------------------

bool save_v1(const ScanArchive& archive, std::ostream& out) {
  const auto& certs = archive.certs();
  const auto& scans = archive.scans();
  if (certs.size() > kMaxCerts ||
      scans.size() > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  for (const CertRecord& cert : certs) {
    if (!cert_within_limits(cert)) return false;
  }
  for (const ScanData& scan : scans) {
    if (scan.observations.size() > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
  }

  out.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, 1);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(certs.size()));
  std::string buf;
  for (const CertRecord& cert : certs) {
    buf.clear();
    append_cert(buf, cert);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(scans.size()));
  for (const ScanData& scan : scans) {
    put<std::uint8_t>(out, static_cast<std::uint8_t>(scan.event.campaign));
    put(out, scan.event.start);
    put(out, scan.event.duration_seconds);
    put<std::uint32_t>(out,
                       static_cast<std::uint32_t>(scan.observations.size()));
    for (const Observation& obs : scan.observations) {
      put(out, obs.cert);
      put(out, obs.ip);
      put(out, obs.device);
    }
  }
  return out.good();
}

std::optional<ScanArchive> load_v1(std::istream& in) {
  ScanArchive archive;
  StreamSource src{in};
  std::uint32_t cert_count = 0;
  if (!read_pod(in, cert_count)) return std::nullopt;
  for (std::uint32_t i = 0; i < cert_count; ++i) {
    CertRecord cert;
    if (!read_cert(src, cert)) return std::nullopt;
    if (archive.intern(std::move(cert)) != i) return std::nullopt;  // dup fp
  }

  std::uint32_t scan_count = 0;
  if (!read_pod(in, scan_count)) return std::nullopt;
  util::UnixTime prev_start = std::numeric_limits<util::UnixTime>::min();
  for (std::uint32_t s = 0; s < scan_count; ++s) {
    std::uint8_t campaign = 0;
    ScanEvent event;
    std::uint32_t obs_count = 0;
    if (!read_pod(in, campaign) || campaign > 1 || !read_pod(in, event.start) ||
        !read_pod(in, event.duration_seconds) || !read_pod(in, obs_count)) {
      return std::nullopt;
    }
    if (event.start < prev_start) return std::nullopt;  // non-chronological
    prev_start = event.start;
    event.campaign = static_cast<Campaign>(campaign);
    const std::size_t scan_index = archive.begin_scan(event);
    for (std::uint32_t i = 0; i < obs_count; ++i) {
      Observation obs;
      if (!read_pod(in, obs.cert) || !read_pod(in, obs.ip) || !read_pod(in, obs.device)) {
        return std::nullopt;
      }
      if (obs.cert >= cert_count) return std::nullopt;
      archive.add_observation(scan_index, obs.cert, obs.ip, obs.device);
    }
  }
  return archive;
}

// --- v2 writer/loader --------------------------------------------------------

bool save_v2(const ScanArchive& archive, std::ostream& out) {
  const auto& certs = archive.certs();
  const auto& scans = archive.scans();
  if (certs.size() > kMaxCerts || scans.size() > kMaxScans) return false;
  const std::uint64_t n_chunks =
      (certs.size() + kCertsPerFrame - 1) / kCertsPerFrame;

  // Validate every limit (and pre-compute frame sizes) before writing a
  // single byte, so an over-limit archive fails loudly instead of leaving
  // a part-written file behind.
  std::vector<std::uint64_t> chunk_bytes(n_chunks, 0);
  for (std::size_t i = 0; i < certs.size(); ++i) {
    if (!cert_within_limits(certs[i])) return false;
    chunk_bytes[i / kCertsPerFrame] += serialized_cert_bytes(certs[i]);
  }
  for (const std::uint64_t bytes : chunk_bytes) {
    if (bytes > kMaxFrameBytes) return false;
  }
  for (const ScanData& scan : scans) {
    if (scan.observations.size() > kMaxObsPerScan) return false;
  }

  util::ThreadPool& pool = util::ThreadPool::global();

  // Shard serialization: cert chunks and scans each become one frame,
  // rendered into index-addressed buffers — bit-identical output for any
  // thread count, since only the schedule varies.
  std::vector<std::string> cert_bufs(n_chunks);
  std::vector<std::uint32_t> cert_crcs(n_chunks);
  pool.parallel_for(n_chunks, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t f = begin; f < end; ++f) {
      const std::size_t lo = f * kCertsPerFrame;
      const std::size_t hi =
          std::min<std::size_t>(lo + kCertsPerFrame, certs.size());
      cert_bufs[f].reserve(chunk_bytes[f]);
      for (std::size_t i = lo; i < hi; ++i) append_cert(cert_bufs[f], certs[i]);
      cert_crcs[f] = util::crc32(cert_bufs[f]);
    }
  });

  std::vector<std::string> scan_bufs(scans.size());
  std::vector<std::uint32_t> scan_crcs(scans.size());
  pool.parallel_for(scans.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      append_scan(scan_bufs[s], scans[s]);
      scan_crcs[s] = util::crc32(scan_bufs[s]);
    }
  });

  out.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, 2);

  std::string header;
  put_buf<std::uint64_t>(header, certs.size());
  put_buf<std::uint64_t>(header, scans.size());
  put_buf<std::uint64_t>(header, archive.observation_count());
  put_buf<std::uint32_t>(header, static_cast<std::uint32_t>(kCertsPerFrame));
  write_frame(out, kFrameHeader, header, util::crc32(header));

  for (std::size_t f = 0; f < n_chunks; ++f) {
    write_frame(out, kFrameCerts, cert_bufs[f], cert_crcs[f]);
  }
  for (std::size_t s = 0; s < scans.size(); ++s) {
    write_frame(out, kFrameScan, scan_bufs[s], scan_crcs[s]);
  }

  std::string end_marker;
  put_buf<std::uint64_t>(end_marker, certs.size());
  put_buf<std::uint64_t>(end_marker, scans.size());
  put_buf<std::uint64_t>(end_marker, archive.observation_count());
  write_frame(out, kFrameEnd, end_marker, util::crc32(end_marker));
  return out.good();
}

struct HeaderV2 {
  std::uint64_t cert_count = 0;
  std::uint64_t scan_count = 0;
  std::uint64_t obs_count = 0;
  std::uint32_t cert_chunk = 0;
};

bool parse_header_v2(std::istream& in, HeaderV2& header) {
  RawFrame frame;
  if (!read_frame(in, frame) || frame.type != kFrameHeader ||
      !frame_checksum_ok(frame)) {
    return false;
  }
  Cursor cursor(frame.payload);
  if (!cursor.get(header.cert_count) || !cursor.get(header.scan_count) ||
      !cursor.get(header.obs_count) || !cursor.get(header.cert_chunk) ||
      !cursor.done()) {
    return false;
  }
  return header.cert_count <= kMaxCerts && header.scan_count <= kMaxScans &&
         header.cert_chunk > 0 && header.cert_chunk <= kMaxCertsPerFrame;
}

bool parse_end_v2(const RawFrame& frame, const HeaderV2& header) {
  if (frame.type != kFrameEnd || !frame_checksum_ok(frame)) return false;
  Cursor cursor(frame.payload);
  std::uint64_t certs = 0, scans = 0, obs = 0;
  if (!cursor.get(certs) || !cursor.get(scans) || !cursor.get(obs) ||
      !cursor.done()) {
    return false;
  }
  return certs == header.cert_count && scans == header.scan_count &&
         obs == header.obs_count;
}

std::optional<ScanArchive> load_v2(std::istream& in) {
  HeaderV2 header;
  if (!parse_header_v2(in, header)) return std::nullopt;
  const std::uint64_t n_chunks =
      (header.cert_count + header.cert_chunk - 1) / header.cert_chunk;

  // Slurp the frames in stream order first (allocation grows only as real
  // bytes arrive), then verify + parse them in parallel.
  std::vector<RawFrame> cert_frames;
  for (std::uint64_t f = 0; f < n_chunks; ++f) {
    RawFrame frame;
    if (!read_frame(in, frame) || frame.type != kFrameCerts) {
      return std::nullopt;
    }
    cert_frames.push_back(std::move(frame));
  }
  std::vector<RawFrame> scan_frames;
  for (std::uint64_t s = 0; s < header.scan_count; ++s) {
    RawFrame frame;
    if (!read_frame(in, frame) || frame.type != kFrameScan) {
      return std::nullopt;
    }
    scan_frames.push_back(std::move(frame));
  }
  RawFrame end_frame;
  if (!read_frame(in, end_frame) || !parse_end_v2(end_frame, header)) {
    return std::nullopt;
  }

  util::ThreadPool& pool = util::ThreadPool::global();

  std::vector<std::vector<CertRecord>> parsed_certs(cert_frames.size());
  std::vector<std::uint8_t> cert_ok(cert_frames.size(), 0);
  pool.parallel_for(cert_frames.size(), 1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t f = begin; f < end; ++f) {
                        const std::uint64_t lo = f * header.cert_chunk;
                        const std::uint64_t n = std::min<std::uint64_t>(
                            header.cert_chunk, header.cert_count - lo);
                        cert_ok[f] = parse_cert_frame(cert_frames[f], n,
                                                      parsed_certs[f]);
                      }
                    });
  for (const std::uint8_t ok : cert_ok) {
    if (!ok) return std::nullopt;
  }

  ScanArchive archive;
  archive.reserve_certs(static_cast<std::size_t>(header.cert_count));
  CertId next_id = 0;
  for (std::vector<CertRecord>& chunk : parsed_certs) {
    for (CertRecord& cert : chunk) {
      if (archive.intern(std::move(cert)) != next_id) {
        return std::nullopt;  // duplicate fingerprint
      }
      ++next_id;
    }
    chunk.clear();
    chunk.shrink_to_fit();
  }

  std::vector<ScanData> parsed_scans(scan_frames.size());
  std::vector<std::uint8_t> scan_ok(scan_frames.size(), 0);
  pool.parallel_for(scan_frames.size(), 1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t s = begin; s < end; ++s) {
                        scan_ok[s] = parse_scan_frame(
                            scan_frames[s], header.cert_count, parsed_scans[s]);
                      }
                    });
  std::uint64_t total_obs = 0;
  for (std::size_t s = 0; s < parsed_scans.size(); ++s) {
    if (!scan_ok[s]) return std::nullopt;
    total_obs += parsed_scans[s].observations.size();
  }
  if (total_obs != header.obs_count) return std::nullopt;

  util::UnixTime prev_start = std::numeric_limits<util::UnixTime>::min();
  for (ScanData& scan : parsed_scans) {
    if (scan.event.start < prev_start) return std::nullopt;
    prev_start = scan.event.start;
    archive.add_scan(std::move(scan));
  }
  return archive;
}

// --- TSV escaping ------------------------------------------------------------

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\t':
        out += "%09";
        break;
      case '\n':
        out += "%0a";
        break;
      case '%':
        out += "%25";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// SAN entries additionally escape the '|' join delimiter, so entry
// contents can never collide with the list encoding.
std::string escape_san_entry(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\t':
        out += "%09";
        break;
      case '\n':
        out += "%0a";
        break;
      case '%':
        out += "%25";
        break;
      case '|':
        out += "%7c";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::optional<std::string> unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) return std::nullopt;
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(s.data() + i + 1, s.data() + i + 3, value, 16);
    if (ec != std::errc{} || ptr != s.data() + i + 3) return std::nullopt;
    out.push_back(static_cast<char>(value));
    i += 2;
  }
  return out;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', pos);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(pos));
      return fields;
    }
    fields.push_back(line.substr(pos, tab - pos));
    pos = tab + 1;
  }
}

// Splits the SAN column into still-escaped entries. Current exports
// terminate every entry with '|' (so empty entries and empty lists are
// distinguishable); legacy exports joined entries with '|' and no
// terminator, which the missing final '|' identifies.
std::vector<std::string> split_san_field(const std::string& field) {
  std::vector<std::string> entries;
  if (field.empty()) return entries;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t bar = field.find('|', pos);
    if (bar == std::string::npos) {
      entries.push_back(field.substr(pos));  // legacy unterminated tail
      return entries;
    }
    entries.push_back(field.substr(pos, bar - pos));
    pos = bar + 1;
    if (pos == field.size()) return entries;  // terminated form
  }
}

template <typename T>
bool parse_int(const std::string& s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

}  // namespace

// --- public binary API -------------------------------------------------------

bool save_archive(const ScanArchive& archive, std::ostream& out,
                  ArchiveVersion version) {
  switch (version) {
    case ArchiveVersion::kV1:
      return save_v1(archive, out);
    case ArchiveVersion::kV2:
      return save_v2(archive, out);
  }
  return false;
}

std::optional<ScanArchive> load_archive(std::istream& in,
                                        ArchiveLoadReport* report) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::uint32_t version = 0;
  if (!read_pod(in, version)) return std::nullopt;
  if (report != nullptr) report->version = version;

  std::optional<ScanArchive> archive;
  if (version == 1) {
    archive = load_v1(in);
  } else if (version == 2) {
    archive = load_v2(in);
  } else {
    return std::nullopt;
  }
  if (archive && report != nullptr) {
    // Peeking consumes nothing but may set eofbit — only safe because a
    // caller asking for a report is not resuming reads on this stream.
    report->trailing_bytes = in.peek() != std::istream::traits_type::eof();
  }
  return archive;
}

bool save_archive_file(const ScanArchive& archive, const std::string& path,
                       ArchiveVersion version) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  return save_archive(archive, out, version) && out.good();
}

std::optional<ScanArchive> load_archive_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  ArchiveLoadReport report;
  auto archive = load_archive(in, &report);
  // A file holds exactly one archive; for v1 (no end marker) this is the
  // only place trailing garbage — e.g. a truncated concatenation — can be
  // detected at all.
  if (archive && report.trailing_bytes) return std::nullopt;
  return archive;
}

// --- streaming reader --------------------------------------------------------

ArchiveReader::ArchiveReader(std::istream& in) : in_(in) {
  char magic[4];
  in_.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in_.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return;
  }
  if (!read_pod(in_, version_)) return;
  if (version_ == 1) {
    std::uint32_t cert_count = 0;
    if (!read_pod(in_, cert_count)) return;
    cert_count_ = cert_count;
    state_ = State::kCerts;
  } else if (version_ == 2) {
    HeaderV2 header;
    if (!parse_header_v2(in_, header)) return;
    cert_count_ = header.cert_count;
    scan_count_ = header.scan_count;
    obs_count_ = header.obs_count;
    cert_chunk_ = header.cert_chunk;
    state_ = State::kCerts;
  }
}

bool ArchiveReader::for_each_cert(const CertFn& fn) {
  if (state_ != State::kCerts) return false;
  CertId id = 0;
  if (version_ == 1) {
    StreamSource src{in_};
    for (std::uint64_t i = 0; i < cert_count_; ++i) {
      CertRecord cert;
      if (!read_cert(src, cert)) {
        state_ = State::kError;
        return false;
      }
      if (fn) fn(id, std::move(cert));
      ++id;
    }
    std::uint32_t scan_count = 0;
    if (!read_pod(in_, scan_count)) {
      state_ = State::kError;
      return false;
    }
    scan_count_ = scan_count;
  } else {
    const std::uint64_t n_chunks =
        (cert_count_ + cert_chunk_ - 1) / cert_chunk_;
    std::vector<CertRecord> chunk;
    for (std::uint64_t f = 0; f < n_chunks; ++f) {
      RawFrame frame;
      const std::uint64_t lo = f * cert_chunk_;
      const std::uint64_t n =
          std::min<std::uint64_t>(cert_chunk_, cert_count_ - lo);
      if (!read_frame(in_, frame) || frame.type != kFrameCerts ||
          !parse_cert_frame(frame, n, chunk)) {
        state_ = State::kError;
        return false;
      }
      for (CertRecord& cert : chunk) {
        if (fn) fn(id, std::move(cert));
        ++id;
      }
    }
  }
  state_ = State::kScans;
  return true;
}

bool ArchiveReader::skip_certs() {
  if (version_ == 1) {
    // v1 records are unframed, so skipping still means parsing.
    return for_each_cert(CertFn());
  }
  const std::uint64_t n_chunks = (cert_count_ + cert_chunk_ - 1) / cert_chunk_;
  for (std::uint64_t f = 0; f < n_chunks; ++f) {
    RawFrame frame;
    if (!read_frame(in_, frame) || frame.type != kFrameCerts ||
        !frame_checksum_ok(frame)) {
      state_ = State::kError;
      return false;
    }
  }
  state_ = State::kScans;
  return true;
}

bool ArchiveReader::for_each_scan(const ScanFn& fn) {
  if (state_ == State::kCerts && !skip_certs()) return false;
  if (state_ != State::kScans) return false;
  const auto fail = [&]() {
    state_ = State::kError;
    return false;
  };

  util::UnixTime prev_start = std::numeric_limits<util::UnixTime>::min();
  std::uint64_t total_obs = 0;
  if (version_ == 1) {
    for (std::uint64_t s = 0; s < scan_count_; ++s) {
      std::uint8_t campaign = 0;
      std::uint32_t obs_count = 0;
      ScanData scan;
      if (!read_pod(in_, campaign) || campaign > 1 || !read_pod(in_, scan.event.start) ||
          !read_pod(in_, scan.event.duration_seconds) || !read_pod(in_, obs_count)) {
        return fail();
      }
      if (scan.event.start < prev_start) return fail();
      prev_start = scan.event.start;
      scan.event.campaign = static_cast<Campaign>(campaign);
      scan.observations.resize(obs_count);
      for (Observation& obs : scan.observations) {
        if (!read_pod(in_, obs.cert) || !read_pod(in_, obs.ip) ||
            !read_pod(in_, obs.device) || obs.cert >= cert_count_) {
          return fail();
        }
      }
      total_obs += obs_count;
      if (fn) fn(std::move(scan));
    }
  } else {
    for (std::uint64_t s = 0; s < scan_count_; ++s) {
      RawFrame frame;
      ScanData scan;
      if (!read_frame(in_, frame) || frame.type != kFrameScan ||
          !parse_scan_frame(frame, cert_count_, scan)) {
        return fail();
      }
      if (scan.event.start < prev_start) return fail();
      prev_start = scan.event.start;
      total_obs += scan.observations.size();
      if (fn) fn(std::move(scan));
    }
    RawFrame end_frame;
    HeaderV2 header{cert_count_, scan_count_, obs_count_,
                    static_cast<std::uint32_t>(cert_chunk_)};
    if (!read_frame(in_, end_frame) || !parse_end_v2(end_frame, header) ||
        total_obs != obs_count_) {
      return fail();
    }
  }
  state_ = State::kDone;
  return true;
}

// --- TSV ---------------------------------------------------------------------

void export_tsv(const ScanArchive& archive, std::ostream& out) {
  out << "#certs\tfingerprint\tkey_fp\tsubject_cn\tissuer_cn\tissuer_dn\t"
         "serial\tnot_before\tnot_after\tsan\taki\tcrl\taia\tocsp\toid\t"
         "version\tis_ca\tvalid\ttransvalid\treason\n";
  for (const CertRecord& cert : archive.certs()) {
    std::string fp_hex;
    for (const std::uint8_t b : cert.fingerprint) {
      static constexpr char kDigits[] = "0123456789abcdef";
      fp_hex.push_back(kDigits[b >> 4]);
      fp_hex.push_back(kDigits[b & 0xf]);
    }
    // Each SAN entry is escaped individually (including '|') and
    // '|'-terminated, so hostile entry contents and empty entries both
    // round-trip; the column needs no further escaping.
    std::string san_joined;
    for (const std::string& san : cert.san) {
      san_joined += escape_san_entry(san);
      san_joined.push_back('|');
    }
    out << "C\t" << fp_hex << '\t' << cert.key_fingerprint << '\t'
        << escape(cert.subject_cn) << '\t' << escape(cert.issuer_cn) << '\t'
        << escape(cert.issuer_dn) << '\t' << escape(cert.serial_hex) << '\t'
        << cert.not_before << '\t' << cert.not_after << '\t'
        << san_joined << '\t' << escape(cert.aki_hex) << '\t'
        << escape(cert.crl_url) << '\t' << escape(cert.aia_url) << '\t'
        << escape(cert.ocsp_url) << '\t' << escape(cert.policy_oid) << '\t'
        << cert.raw_version << '\t' << (cert.is_ca ? 1 : 0) << '\t'
        << (cert.valid ? 1 : 0) << '\t' << (cert.transvalid ? 1 : 0) << '\t'
        << static_cast<int>(cert.invalid_reason) << '\n';
  }
  out << "#observations\tscan\tcampaign\tstart\tduration\tcert\tip\tdevice\n";
  for (std::size_t s = 0; s < archive.scans().size(); ++s) {
    const ScanData& scan = archive.scans()[s];
    for (const Observation& obs : scan.observations) {
      out << "O\t" << s << '\t' << static_cast<int>(scan.event.campaign)
          << '\t' << scan.event.start << '\t' << scan.event.duration_seconds
          << '\t' << obs.cert << '\t' << obs.ip << '\t' << obs.device << '\n';
    }
  }
}

std::optional<ScanArchive> import_tsv(std::istream& in) {
  ScanArchive archive;
  std::string line;
  std::uint32_t cert_count = 0;
  std::int64_t current_scan = -1;
  util::UnixTime prev_start = std::numeric_limits<util::UnixTime>::min();
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split_tabs(line);
    if (fields[0] == "C") {
      if (fields.size() != 20) return std::nullopt;
      CertRecord cert;
      const std::string& fp_hex = fields[1];
      if (fp_hex.size() != cert.fingerprint.size() * 2) return std::nullopt;
      for (std::size_t i = 0; i < cert.fingerprint.size(); ++i) {
        unsigned byte = 0;
        const auto* begin = fp_hex.data() + 2 * i;
        const auto [ptr, ec] = std::from_chars(begin, begin + 2, byte, 16);
        if (ec != std::errc{} || ptr != begin + 2) return std::nullopt;
        cert.fingerprint[i] = static_cast<std::uint8_t>(byte);
      }
      const auto subject = unescape(fields[3]);
      const auto issuer = unescape(fields[4]);
      const auto issuer_dn = unescape(fields[5]);
      const auto serial = unescape(fields[6]);
      const auto aki = unescape(fields[10]);
      const auto crl = unescape(fields[11]);
      const auto aia = unescape(fields[12]);
      const auto ocsp = unescape(fields[13]);
      const auto oid = unescape(fields[14]);
      int is_ca = 0, valid = 0, transvalid = 0, reason = 0;
      if (!subject || !issuer || !issuer_dn || !serial || !aki || !crl ||
          !aia || !ocsp || !oid || !parse_int(fields[2], cert.key_fingerprint) ||
          !parse_int(fields[7], cert.not_before) ||
          !parse_int(fields[8], cert.not_after) ||
          !parse_int(fields[15], cert.raw_version) ||
          !parse_int(fields[16], is_ca) || !parse_int(fields[17], valid) ||
          !parse_int(fields[18], transvalid) ||
          !parse_int(fields[19], reason)) {
        return std::nullopt;
      }
      cert.subject_cn = *subject;
      cert.issuer_cn = *issuer;
      cert.issuer_dn = *issuer_dn;
      cert.serial_hex = *serial;
      cert.aki_hex = *aki;
      cert.crl_url = *crl;
      cert.aia_url = *aia;
      cert.ocsp_url = *ocsp;
      cert.policy_oid = *oid;
      for (const std::string& entry : split_san_field(fields[9])) {
        auto san = unescape(entry);
        if (!san) return std::nullopt;
        cert.san.push_back(std::move(*san));
      }
      cert.is_ca = is_ca != 0;
      cert.valid = valid != 0;
      cert.transvalid = transvalid != 0;
      if (reason < 0 ||
          reason > static_cast<int>(pki::InvalidReason::kRevoked)) {
        return std::nullopt;
      }
      cert.invalid_reason = static_cast<pki::InvalidReason>(reason);
      if (archive.intern(std::move(cert)) != cert_count) return std::nullopt;
      ++cert_count;
    } else if (fields[0] == "O") {
      if (fields.size() != 8) return std::nullopt;
      std::int64_t scan_index = 0;
      int campaign = 0;
      ScanEvent event;
      Observation obs;
      if (!parse_int(fields[1], scan_index) ||
          !parse_int(fields[2], campaign) || campaign < 0 || campaign > 1 ||
          !parse_int(fields[3], event.start) ||
          !parse_int(fields[4], event.duration_seconds) ||
          !parse_int(fields[5], obs.cert) || !parse_int(fields[6], obs.ip) ||
          !parse_int(fields[7], obs.device)) {
        return std::nullopt;
      }
      event.campaign = static_cast<Campaign>(campaign);
      if (scan_index == current_scan + 1) {
        if (event.start < prev_start) return std::nullopt;
        prev_start = event.start;
        archive.begin_scan(event);
        current_scan = scan_index;
      } else if (scan_index != current_scan) {
        return std::nullopt;  // scans must arrive in order
      }
      if (obs.cert >= cert_count) return std::nullopt;
      archive.add_observation(static_cast<std::size_t>(current_scan),
                              obs.cert, obs.ip, obs.device);
    } else {
      return std::nullopt;
    }
  }
  return archive;
}

}  // namespace sm::scan
