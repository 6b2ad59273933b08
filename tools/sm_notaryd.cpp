// sm_notaryd — the certificate-notary daemon: serves "what do we know
// about this certificate?" lookups over a scan corpus, the delivery
// vehicle the paper's conclusion calls for (a client deciding whether an
// *invalid* certificate is a benign device cert can ask the notary for
// its history instead of guessing).
//
//   sm_notaryd [--in bundle.smwb | --archive archive.smar] [--port N]
//              [--threads N] [--cache-mb N] [--shard-prefix LO-HI|i/n]
//       Serve the framed binary protocol (src/netio/frame.h) until
//       SIGTERM/SIGINT, then drain cleanly. With neither --in nor
//       --archive, a world is simulated from --seed/--devices/--websites/
//       --scale (handy for demos). Every daemon serves one live prefix
//       slice — the certificates whose fingerprint's first byte lies in
//       [LO, HI], by default [0, 255], the whole corpus — through a
//       corpus::LiveCorpus that carries the full corpus's key-sharing
//       degrees and revocation statuses as sidecars, so N daemons behind
//       sm_notary_router answer byte-identically to one unsharded daemon.
//       The daemon mounts a notary::ReshardHost: it can stream a prefix
//       slice to a successor (kSliceSend), absorb one (kSliceBegin/
//       Segment/Done) and retire a handed-off range (kSliceRetire) — the
//       backend side of tools/sm_reshard. Every epoch after epoch 0 is
//       published through notary::publish_live_snapshot.
//
//   sm_notaryd --empty ...
//       Successor mode: serve an EMPTY corpus (the loaded or simulated
//       world contributes only its routing history, for AS resolution)
//       and wait for a reshard driver to stream a slice in.
//
//   sm_notaryd --ingest DIR [--ingest-poll-ms N] ...
//       Also poll DIR for new `.smar` scan segments (write them
//       atomically — rename into place) and publish each as a new epoch;
//       queries keep flowing lock-free, and only cached renders of
//       certificates the segment touched are invalidated. A
//       `SEG.smar.rev` sidecar next to a segment carries revocation
//       statuses learned with it (the slice-sidecar binary format).
//
//   sm_notaryd --link ...
//       Also run the §6 linker and attach linked-device ids to the
//       epoch-0 index (needs routing: --in or a simulated world).
//
//   Reshard frames are answered kError under --ingest and --link: a
//   second publisher could install an older epoch after a newer one, and
//   the linker's groups hold only for epoch 0.
//
//   sm_notaryd --query HEX --port N [--host ADDR]
//       One-shot client: look up a fingerprint (16- or 32-byte hex) on a
//       running daemon and print the response.
//
//   sm_notaryd --probe N --port P [--host ADDR] [--oracle HOST:PORT] ...
//       Probe client: drive N kQuery + kRevocationQuery lookups over the
//       corpus's fingerprints against a running daemon or router and
//       count failures. With --oracle, every response is also fetched
//       from the oracle daemon and compared byte-for-byte — the
//       resharding e2e check (exit 0 only on zero failures and zero
//       mismatches).
//
//   sm_notaryd --split-segments K DIR ...
//       Segment producer: write DIR/base.smar (all but the last K scans
//       of the corpus) plus one segment-NNN.smar per held-out scan —
//       ready to serve with `--archive base.smar --ingest DIR`.
//
// Load generation lives outside the daemon: perfbench/ drives a routed
// deployment open-loop, and bench/bench_notary, bench_router and
// bench_live measure the service, the router hop and live ingestion.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/dataset.h"
#include "corpus/live.h"
#include "corpus_load.h"
#include "linking/linker.h"
#include "netio/blocking_client.h"
#include "notary/reshard.h"
#include "notary/service.h"
#include "scan/archive_io.h"
#include "serve.h"
#include "util/hex.h"
#include "util/thread_pool.h"

namespace {

using namespace sm;

struct Options {
  std::string in_path;
  std::string archive_path;
  std::string bind_address = "127.0.0.1";
  std::string host = "127.0.0.1";
  std::uint16_t port = 7433;
  bool port_given = false;
  std::size_t threads = 0;
  std::size_t cache_mb = 64;
  int idle_ms = 60'000;
  bool link = false;
  bool has_shard = false;        // --shard-prefix LO-HI
  std::uint8_t shard_lo = 0;
  std::uint8_t shard_hi = 255;
  bool empty_corpus = false;     // --empty: successor awaiting a slice
  std::uint64_t probe = 0;       // --probe N: e2e probe client
  std::string oracle;            // --oracle HOST:PORT for --probe
  std::string query_hex;
  std::string ingest_dir;
  int ingest_poll_ms = 500;
  std::uint64_t split_count = 0;
  std::string split_dir;
  // Simulation fallback when no input file is given.
  std::uint64_t seed = 42;
  std::size_t devices = 5000;
  std::size_t websites = 1700;
  double scale = 0.45;
};

void usage() {
  std::fputs(
      "usage: sm_notaryd [--in bundle.smwb | --archive archive.smar]\n"
      "  --port N       TCP port (default 7433; 0 = kernel-assigned, read\n"
      "                 it from the \"listening on\" line)\n"
      "  --bind ADDR    bind address (default 127.0.0.1)\n"
      "  --threads N    worker event loops / index build threads (0 = hw)\n"
      "  --cache-mb N   rendered-response LRU cache size (default 64; 0 "
      "= off)\n"
      "  --idle-ms N    idle connection timeout in ms (default 60000)\n"
      "  --link         attach linked-device ids (runs the linker; needs "
      "routing,\n"
      "                 so --in or a simulated world)\n"
      "  --seed/--devices/--websites/--scale   simulate when no input "
      "given\n"
      "  --shard-prefix LO-HI  serve only certificates whose fingerprint\n"
      "                 first byte is in [LO, HI] (decimal 0-255; i/n\n"
      "                 means shard i's range under an n-way split) —\n"
      "                 the backend side of sm_notary_router; key-sharing\n"
      "                 degrees still reflect the full corpus\n"
      "  --empty        successor mode: serve an empty corpus (routing\n"
      "                 history only) and wait for a reshard slice\n"
      "  --probe N      probe client: N kQuery+kRevocationQuery lookups\n"
      "                 against --host/--port; exits 0 only on zero\n"
      "                 failures (and zero oracle mismatches)\n"
      "  --oracle H:P   also fetch every --probe response from this\n"
      "                 unsharded daemon and require byte-identity\n"
      "  --query HEX    one-shot client query against a running daemon:\n"
      "                 prints the knowledge render plus the revocation\n"
      "                 status line; exits 0 found, 3 not in the index,\n"
      "                 2 bad hex, 1 connect/transport failure or timeout\n"
      "  --host ADDR    server address for --query/--probe (default "
      "127.0.0.1)\n"
      "  --ingest DIR   poll DIR for new .smar segments and publish each\n"
      "                 as a fresh index epoch (no --link)\n"
      "  --ingest-poll-ms N  directory poll interval (default 500)\n"
      "  --split-segments K DIR  write DIR/base.smar (all but the last K\n"
      "                 scans) plus one segment-NNN.smar per held-out\n"
      "                 scan, then exit — the producer side of --ingest\n",
      stderr);
}

using tools::parse_u64_or_die;

std::pair<std::uint8_t, std::uint8_t> parse_prefix_range_or_die(
    const char* text) {
  // i/n: shard i of n, the range the router expects backend i to own.
  const char* slash = std::strchr(text, '/');
  if (slash != nullptr && slash != text && slash[1] != '\0') {
    const std::uint64_t n = parse_u64_or_die("--shard-prefix", slash + 1,
                                             256);
    const std::uint64_t i =
        parse_u64_or_die("--shard-prefix", std::string(text, slash).c_str(),
                         255);
    if (n >= 1 && i < n) {
      return {static_cast<std::uint8_t>(i * 256 / n),
              static_cast<std::uint8_t>((i + 1) * 256 / n - 1)};
    }
  }
  const char* dash = std::strchr(text, '-');
  if (dash != nullptr && dash != text && dash[1] != '\0') {
    const std::uint64_t lo =
        parse_u64_or_die("--shard-prefix", std::string(text, dash).c_str(),
                         255);
    const std::uint64_t hi = parse_u64_or_die("--shard-prefix", dash + 1,
                                              255);
    if (lo <= hi) {
      return {static_cast<std::uint8_t>(lo), static_cast<std::uint8_t>(hi)};
    }
  }
  std::fprintf(stderr,
               "--shard-prefix wants LO-HI (first-byte range) or i/n "
               "(shard i of n, i < n, n in 1..256), got \"%s\"\n",
               text);
  usage();
  std::exit(2);
}

std::optional<Options> parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--in") {
      opts.in_path = value();
    } else if (arg == "--archive") {
      opts.archive_path = value();
    } else if (arg == "--bind") {
      opts.bind_address = value();
    } else if (arg == "--host") {
      opts.host = value();
    } else if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(
          parse_u64_or_die("--port", value(), 65535));
      opts.port_given = true;
    } else if (arg == "--threads") {
      opts.threads = parse_u64_or_die("--threads", value(), 4096);
    } else if (arg == "--cache-mb") {
      opts.cache_mb = parse_u64_or_die("--cache-mb", value(), 1 << 20);
    } else if (arg == "--idle-ms") {
      opts.idle_ms = static_cast<int>(
          parse_u64_or_die("--idle-ms", value(), 86'400'000));
    } else if (arg == "--link") {
      opts.link = true;
    } else if (arg == "--shard-prefix") {
      std::tie(opts.shard_lo, opts.shard_hi) =
          parse_prefix_range_or_die(value());
      opts.has_shard = true;
    } else if (arg == "--empty") {
      opts.empty_corpus = true;
    } else if (arg == "--probe") {
      opts.probe = parse_u64_or_die("--probe", value(), ~std::uint64_t{0});
      if (opts.probe == 0) opts.probe = 1;
    } else if (arg == "--oracle") {
      opts.oracle = value();
    } else if (arg == "--query") {
      opts.query_hex = value();
    } else if (arg == "--ingest") {
      opts.ingest_dir = value();
    } else if (arg == "--ingest-poll-ms") {
      opts.ingest_poll_ms = static_cast<int>(
          parse_u64_or_die("--ingest-poll-ms", value(), 3'600'000));
      if (opts.ingest_poll_ms == 0) opts.ingest_poll_ms = 1;
    } else if (arg == "--split-segments") {
      opts.split_count =
          parse_u64_or_die("--split-segments", value(), 100'000);
      opts.split_dir = value();
    } else if (arg == "--seed") {
      opts.seed = parse_u64_or_die("--seed", value(), ~std::uint64_t{0});
    } else if (arg == "--devices") {
      opts.devices = parse_u64_or_die("--devices", value(), 100'000'000);
    } else if (arg == "--websites") {
      opts.websites = parse_u64_or_die("--websites", value(), 100'000'000);
    } else if (arg == "--scale") {
      opts.scale = tools::parse_scale_or_die("--scale", value());
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return opts;
}

// ---- clients -------------------------------------------------------------

int run_query_client(const Options& opts) {
  const auto bytes = util::hex_decode(opts.query_hex);
  if (!bytes.has_value() ||
      (bytes->size() != 16 && bytes->size() != 32)) {
    std::fprintf(stderr,
                 "--query wants 32 or 64 hex digits (16- or 32-byte "
                 "fingerprint)\n");
    return 2;
  }
  // Both requests ride one connection: the knowledge render, then the
  // revocation verdict. Exit codes stay distinct so scripts can branch:
  // 0 found, 3 not in the index, 2 bad hex, 1 transport/protocol failure.
  const std::string payload(bytes->begin(), bytes->end());
  netio::BlockingClient client;
  netio::Frame response;
  if (!client.connect({opts.host, opts.port}) ||
      !client.call(netio::FrameType::kQuery, payload, response)) {
    std::fprintf(stderr, "--query: %s\n", client.error().c_str());
    return 1;
  }
  std::fputs(response.payload.c_str(), stdout);
  if (!response.payload.empty() && response.payload.back() != '\n') {
    std::fputc('\n', stdout);
  }
  if (response.type == netio::FrameType::kNotFound) return 3;
  if (response.type != netio::FrameType::kCertInfo) return 1;
  netio::Frame revocation;
  if (!client.call(netio::FrameType::kRevocationQuery, payload,
                   revocation)) {
    std::fprintf(stderr, "--query: %s\n", client.error().c_str());
    return 1;
  }
  if (revocation.type != netio::FrameType::kRevocationInfo) return 1;
  // The kRevocationInfo body repeats the fingerprint line already printed
  // above; emit only its "revocation: <status>" line.
  const std::size_t line = revocation.payload.find("revocation: ");
  std::fputs(line == std::string::npos ? revocation.payload.c_str()
                                       : revocation.payload.c_str() + line,
             stdout);
  return 0;
}

// The resharding e2e check: hammer a router (or daemon) with kQuery +
// kRevocationQuery lookups and — with --oracle — require byte-identical
// responses from an unsharded daemon. Any transport failure or mismatch
// is fatal; a resharding deployment must mask the handoff completely.
int run_probe_client(const Options& opts, const scan::ScanArchive& archive) {
  const auto& certs = archive.certs();
  if (certs.empty()) {
    std::fprintf(stderr, "--probe: empty corpus, nothing to query\n");
    return 2;
  }
  netio::Endpoint oracle;
  if (!opts.oracle.empty() && !netio::parse_endpoint(opts.oracle, oracle)) {
    std::fprintf(stderr, "--oracle wants HOST:PORT, got \"%s\"\n",
                 opts.oracle.c_str());
    return 2;
  }
  netio::BlockingClient client;
  netio::BlockingClient oracle_client;
  if (!client.connect({opts.host, opts.port}) ||
      (oracle.port != 0 && !oracle_client.connect(oracle))) {
    std::fprintf(stderr, "--probe: %s%s\n", client.error().c_str(),
                 oracle_client.error().c_str());
    return 1;
  }

  netio::Frame response;
  netio::Frame oracle_response;
  std::uint64_t sent = 0;
  std::uint64_t mismatches = 0;
  const netio::FrameType kinds[2] = {netio::FrameType::kQuery,
                                     netio::FrameType::kRevocationQuery};
  for (std::uint64_t q = 0; q < opts.probe; ++q) {
    const auto& fp = certs[q % certs.size()].fingerprint;
    const std::string_view payload(
        reinterpret_cast<const char*>(fp.data()), fp.size());
    for (const netio::FrameType kind : kinds) {
      ++sent;
      if (!client.call(kind, payload, response)) {
        std::fprintf(stderr, "--probe: query %llu of %llu: %s\n",
                     static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(opts.probe * 2),
                     client.error().c_str());
        return 1;
      }
      if (response.type == netio::FrameType::kError) {
        std::fprintf(stderr, "--probe: query %llu answered kError: %s\n",
                     static_cast<unsigned long long>(sent),
                     response.payload.c_str());
        return 1;
      }
      if (!oracle_client.connected()) continue;
      if (!oracle_client.call(kind, payload, oracle_response)) {
        std::fprintf(stderr, "--probe: oracle: %s\n",
                     oracle_client.error().c_str());
        return 1;
      }
      if (response != oracle_response && ++mismatches <= 3) {
        std::fprintf(stderr,
                     "--probe: MISMATCH on query %llu (type %u vs %u)\n--- "
                     "got ---\n%s\n--- oracle ---\n%s\n",
                     static_cast<unsigned long long>(sent),
                     static_cast<unsigned>(response.type),
                     static_cast<unsigned>(oracle_response.type),
                     response.payload.c_str(),
                     oracle_response.payload.c_str());
      }
    }
  }
  std::printf("probe: %llu lookups, %llu mismatches%s\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(mismatches),
              opts.oracle.empty() ? "" : " (oracle-checked)");
  return mismatches == 0 ? 0 : 1;
}

// ---- segment producer --------------------------------------------------

// Moves the archive out of a loaded corpus (the routing history, when
// present, stays behind in `corpus.world` and remains borrowable).
scan::ScanArchive take_archive(tools::LoadedCorpus& corpus) {
  return corpus.world.has_value() ? std::move(corpus.world->archive)
                                  : std::move(corpus.archive);
}

// The producer side of --ingest: split the corpus into a base archive
// plus one single-scan segment per held-out scan, written with the
// atomic write-then-rename protocol the ingest poller documents.
int run_split_segments(const Options& opts, tools::LoadedCorpus corpus) {
  const scan::ScanArchive full = take_archive(corpus);
  const std::size_t total = full.scans().size();
  if (opts.split_count >= total) {
    std::fprintf(stderr,
                 "--split-segments: corpus has %zu scans, cannot hold "
                 "out %llu\n",
                 total,
                 static_cast<unsigned long long>(opts.split_count));
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.split_dir, ec);
  if (ec) {
    std::fprintf(stderr, "--split-segments: cannot create %s: %s\n",
                 opts.split_dir.c_str(), ec.message().c_str());
    return 2;
  }
  const std::size_t base_count =
      total - static_cast<std::size_t>(opts.split_count);
  const corpus::RevocationStatusMap* statuses =
      corpus.world.has_value() && !corpus.world->revocation.statuses.empty()
          ? &corpus.world->revocation.statuses
          : nullptr;
  const auto write = [&](const scan::ScanArchive& archive,
                         const std::string& name) {
    const auto path = std::filesystem::path(opts.split_dir) / name;
    // Revocation sidecar first: the ingest poller keys on the .smar
    // appearing, so NAME.smar.rev must already be in place by then.
    if (statuses != nullptr) {
      corpus::RevocationStatusMap subset;
      for (const scan::CertRecord& cert : archive.certs()) {
        const auto it = statuses->find(cert.fingerprint);
        if (it != statuses->end()) subset.emplace(it->first, it->second);
      }
      if (!subset.empty()) {
        std::ofstream rev(path.string() + ".rev",
                          std::ios::binary | std::ios::trunc);
        const std::string blob =
            notary::serialize_slice_sidecar({}, subset);
        if (!rev.write(blob.data(),
                       static_cast<std::streamsize>(blob.size()))) {
          std::fprintf(stderr, "cannot write %s.rev\n", path.c_str());
          return false;
        }
      }
    }
    const std::string tmp = path.string() + ".tmp";
    if (!scan::save_archive_file(archive, tmp)) {
      std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
      return false;
    }
    std::error_code rename_ec;
    std::filesystem::rename(tmp, path, rename_ec);
    if (rename_ec) {
      std::fprintf(stderr, "cannot rename %s: %s\n", tmp.c_str(),
                   rename_ec.message().c_str());
      return false;
    }
    std::fprintf(stderr, "wrote %s: %zu certs, %zu scans\n",
                 path.c_str(), archive.certs().size(),
                 archive.scans().size());
    return true;
  };
  if (!write(corpus::extract_segment(full, 0, base_count), "base.smar")) {
    return 1;
  }
  for (std::size_t k = 0; k < opts.split_count; ++k) {
    char name[40];
    std::snprintf(name, sizeof name, "segment-%03zu.smar", k + 1);
    if (!write(corpus::extract_segment(full, base_count + k,
                                       base_count + k + 1),
               name)) {
      return 1;
    }
  }
  return 0;
}


// ---- the server --------------------------------------------------------

// The --ingest poller: watches a directory for new .smar segments,
// appends each through the LiveCorpus, and publishes the fresh epoch to
// the service. Files are processed once, in name order — producers must
// write segments atomically (write elsewhere, rename into place).
void poll_ingest_dir(const Options& opts, corpus::LiveCorpus& live,
                     notary::NotaryService& service,
                     std::atomic<bool>& stop) {
  std::set<std::string> seen;
  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<std::string> fresh;
    std::error_code ec;
    for (std::filesystem::directory_iterator
             it(opts.ingest_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      const std::filesystem::path& path = it->path();
      if (path.extension() != ".smar" || !it->is_regular_file(ec)) continue;
      if (seen.contains(path.string())) continue;
      fresh.push_back(path.string());
    }
    if (ec) {
      std::fprintf(stderr, "ingest: cannot read %s: %s\n",
                   opts.ingest_dir.c_str(), ec.message().c_str());
    }
    std::sort(fresh.begin(), fresh.end());
    for (const std::string& path : fresh) {
      if (stop.load(std::memory_order_relaxed)) return;
      seen.insert(path);
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "ingest: cannot open %s\n", path.c_str());
        continue;
      }
      // An optional SEG.smar.rev sidecar carries revocation statuses
      // learned with the segment (slice-sidecar binary format; the key
      // count section is unused here).
      corpus::RevocationStatusMap segment_statuses;
      const corpus::RevocationStatusMap* statuses_arg = nullptr;
      std::error_code rev_ec;
      const std::string rev_path = path + ".rev";
      if (std::filesystem::is_regular_file(rev_path, rev_ec)) {
        std::ifstream rev(rev_path, std::ios::binary);
        std::ostringstream bytes;
        bytes << rev.rdbuf();
        corpus::KeyCountMap unused_counts;
        std::string rev_error;
        if (rev && notary::parse_slice_sidecar(bytes.view(), unused_counts,
                                               segment_statuses, rev_error)) {
          statuses_arg = &segment_statuses;
        } else {
          std::fprintf(stderr, "ingest: ignoring bad sidecar %s: %s\n",
                       rev_path.c_str(), rev_error.c_str());
        }
      }
      const auto begin = std::chrono::steady_clock::now();
      const corpus::AppendResult result = live.append_segment(in, statuses_arg);
      if (!result.ok) {
        std::fprintf(stderr, "ingest: %s rejected: %s\n", path.c_str(),
                     result.error.c_str());
        continue;
      }
      const auto snap = live.snapshot();
      notary::publish_live_snapshot(*snap, service);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - begin)
                                 .count();
      std::fprintf(stderr,
                   "ingest: %s -> epoch %llu (+%zu scans, +%zu certs, "
                   "%zu certs changed) in %.3fs\n",
                   path.c_str(),
                   static_cast<unsigned long long>(snap->epoch),
                   result.scans_appended, result.new_certs,
                   result.delta_size, seconds);
    }
    for (int waited = 0;
         waited < opts.ingest_poll_ms &&
         !stop.load(std::memory_order_relaxed);
         waited += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

// §6 linking over the epoch-0 spine: the groups' cert ids are that
// snapshot's, which is why --link refuses every path that publishes
// later epochs.
std::vector<std::vector<scan::CertId>> link_devices(
    const corpus::CorpusIndex& spine) {
  const auto begin = std::chrono::steady_clock::now();
  const analysis::DatasetIndex index(spine);
  const auto linked = linking::Linker(index).link_iteratively();
  std::vector<std::vector<scan::CertId>> groups;
  groups.reserve(linked.groups.size());
  for (const auto& group : linked.groups) groups.push_back(group.certs);
  std::fprintf(stderr, "linking: %zu device groups in %.2fs\n",
               groups.size(), seconds_since(begin));
  return groups;
}

// The one server path: a LiveCorpus over the [shard_lo, shard_hi] prefix
// slice (the whole corpus by default) with the full corpus's key-sharing
// degrees and revocation statuses as sidecars. --ingest adds the poller
// thread, --link attaches device groups to the epoch-0 index, and every
// other daemon mounts a ReshardHost.
int serve(const Options& opts, tools::LoadedCorpus corpus) {
  const net::RoutingHistory* routing = corpus.routing();
  scan::ScanArchive slice;
  corpus::RevocationStatusMap statuses;
  corpus::KeyCountMap key_counts;
  if (opts.empty_corpus) {
    std::fprintf(stderr,
                 "successor: empty corpus, awaiting a reshard slice\n");
  } else {
    const scan::ScanArchive& full = corpus.archive_ref();
    // Key-sharing degree is a property of the FULL corpus (an SPKI's
    // other holders may live on other shards): count before slicing and
    // carry the counts as this slice's sidecar, so they survive ingests,
    // merges and retires.
    key_counts.reserve(full.certs().size());
    for (const scan::CertRecord& cert : full.certs()) {
      ++key_counts[cert.key_fingerprint];
    }
    if (corpus.world.has_value()) {
      statuses = corpus.world->revocation.statuses;
    }
    slice = corpus::extract_prefix_slice(full, opts.shard_lo, opts.shard_hi);
    std::fprintf(stderr, "corpus: prefix %u-%u, %zu of %zu certificates\n",
                 static_cast<unsigned>(opts.shard_lo),
                 static_cast<unsigned>(opts.shard_hi), slice.certs().size(),
                 full.certs().size());
  }
  // The slice is a copy: release the loaded archive (the routing history
  // stays behind in the world for the LiveCorpus to borrow).
  take_archive(corpus);

  const auto begin = std::chrono::steady_clock::now();
  corpus::LiveCorpus live(std::move(slice), routing, nullptr,
                          std::move(statuses), std::move(key_counts));
  const auto snap0 = live.snapshot();
  std::fprintf(stderr,
               "live corpus: epoch 0 over %zu scans, %zu certificates in "
               "%.2fs\n",
               snap0->spine->scan_count(), snap0->spine->cert_count(),
               seconds_since(begin));

  std::vector<std::vector<scan::CertId>> device_groups;
  if (opts.link) {
    if (routing == nullptr) {
      std::fprintf(stderr,
                   "--link needs routing data (--in bundle or a simulated "
                   "world, not --archive)\n");
      return 1;
    }
    device_groups = link_devices(*snap0->spine);
  }
  const auto index_begin = std::chrono::steady_clock::now();
  notary::NotaryServiceConfig service_config;
  service_config.cache_bytes = opts.cache_mb << 20;
  notary::NotaryService service(
      notary::build_live_index(*snap0, nullptr,
                               opts.link ? &device_groups : nullptr),
      service_config);
  std::fprintf(stderr, "notary index: %zu certificates in %.2fs\n",
               service.index().size(), seconds_since(index_begin));

  // ReshardHost only where it is the sole publisher: NotaryService
  // numbers epochs by arrival, so an ingest poller racing a slice merge
  // could install an older snapshot after a newer one.
  std::optional<notary::ReshardHost> reshard;
  std::string detail = " (" + std::to_string(service.index().size()) +
                       " certificates";
  if (!opts.ingest_dir.empty()) {
    detail += ", ingesting " + opts.ingest_dir + " every " +
              std::to_string(opts.ingest_poll_ms) + "ms)";
  } else if (opts.link) {
    detail += ", linked)";
  } else {
    reshard.emplace(live, service);
    detail += ", reshard-capable)";
  }

  std::atomic<bool> stop{false};
  std::thread poller;
  if (!opts.ingest_dir.empty()) {
    poller = std::thread([&] { poll_ingest_dir(opts, live, service, stop); });
  }
  netio::ServerConfig config;
  config.bind_address = opts.bind_address;
  config.port = opts.port;
  config.workers = opts.threads;
  config.idle_timeout_ms = opts.idle_ms;
  const int rc = tools::serve_until_signal(
      "sm_notaryd", config,
      [&service, &reshard](netio::FrameType type, std::string_view payload,
                           std::string& out) {
        if (!reshard.has_value() || !reshard->handle(type, payload, out)) {
          service.handle_into(type, payload, out);
        }
      },
      detail);
  stop.store(true, std::memory_order_relaxed);
  if (poller.joinable()) poller.join();
  if (rc != 0) return rc;
  std::fputs(service.render_stats().c_str(), stderr);
  std::fputs(service.render_snapshot_info().c_str(), stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts.has_value()) {
    usage();
    return 2;
  }
  if ((!opts->query_hex.empty() || opts->probe > 0) && !opts->port_given) {
    std::fprintf(stderr, "--query and --probe need --port\n");
    return 2;
  }
  if (!opts->query_hex.empty()) return run_query_client(*opts);
  if (opts->threads != 0) {
    util::ThreadPool::set_global_threads(opts->threads);
  }
  if (!opts->ingest_dir.empty() && opts->link) {
    std::fprintf(stderr,
                 "--link is incompatible with live ingestion: the "
                 "iterative linker is corpus-global and cannot be "
                 "maintained incrementally\n");
    return 2;
  }
  if ((opts->has_shard || opts->empty_corpus) &&
      (opts->link || !opts->ingest_dir.empty() || opts->split_count > 0)) {
    std::fprintf(stderr,
                 "--shard-prefix/--empty serve a reshardable slice; they "
                 "are incompatible with --link, --ingest and "
                 "--split-segments\n");
    return 2;
  }
  std::error_code ec;
  if (!opts->ingest_dir.empty() &&
      !std::filesystem::is_directory(opts->ingest_dir, ec)) {
    std::fprintf(stderr, "--ingest: %s is not a directory\n",
                 opts->ingest_dir.c_str());
    return 2;
  }

  tools::CorpusSpec spec;
  spec.in_path = opts->in_path;
  spec.archive_path = opts->archive_path;
  spec.seed = opts->seed;
  spec.devices = opts->devices;
  spec.websites = opts->websites;
  spec.scale = opts->scale;
  tools::LoadedCorpus corpus = tools::load_or_simulate(spec);

  if (opts->split_count > 0) {
    return run_split_segments(*opts, std::move(corpus));
  }
  if (opts->probe > 0) return run_probe_client(*opts, corpus.archive_ref());
  return serve(*opts, std::move(corpus));
}
