// Online-resharding tests: the epoch-versioned prefix map (codec,
// split/merge algebra, router swaps), the slice-handoff state machine
// (kSliceBegin/Segment/Done/Send/Retire through ReshardHost), and the
// acceptance bar — a live deployment splits one shard into two and merges
// back under sustained loopback load with zero failed queries, answering
// byte-identically to an unsharded oracle before, during, and after. This
// binary also runs under TSan and ASan in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "loopback_client.h"
#include "netio/client_pool.h"
#include "netio/frame.h"
#include "netio/server.h"
#include "notary/index.h"
#include "notary/prefix_map.h"
#include "notary/reshard.h"
#include "notary/router.h"
#include "notary/service.h"
#include "scan/archive_io.h"
#include "simworld/world.h"

namespace sm::notary {
namespace {

using sm::testing::LoopbackClient;

std::string fp_payload(const scan::CertFingerprint& fp) {
  return {reinterpret_cast<const char*>(fp.data()), fp.size()};
}

std::vector<netio::Endpoint> loopback(std::uint16_t port) {
  return {{"127.0.0.1", port}};
}

// ---- prefix map unit tests ----------------------------------------------

TEST(PrefixMap, UniformMapSerializesParsesAndRenders) {
  const PrefixMap map =
      uniform_prefix_map({loopback(9301), loopback(9302), loopback(9303)});
  EXPECT_EQ(map.epoch, 1u);
  ASSERT_EQ(map.entries.size(), 3u);
  EXPECT_EQ(map.entries[0].lo, 0);
  EXPECT_EQ(map.entries[0].hi, 84);
  EXPECT_EQ(map.entries[2].hi, 255);
  std::string error;
  EXPECT_TRUE(validate_prefix_map(map, error)) << error;

  PrefixMap parsed;
  ASSERT_TRUE(parse_prefix_map(serialize_prefix_map(map), parsed, error))
      << error;
  EXPECT_EQ(parsed.epoch, map.epoch);
  ASSERT_EQ(parsed.entries.size(), map.entries.size());
  for (std::size_t i = 0; i < map.entries.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].lo, map.entries[i].lo);
    EXPECT_EQ(parsed.entries[i].hi, map.entries[i].hi);
    ASSERT_EQ(parsed.entries[i].replicas.size(),
              map.entries[i].replicas.size());
    EXPECT_EQ(parsed.entries[i].replicas[0].host,
              map.entries[i].replicas[0].host);
    EXPECT_EQ(parsed.entries[i].replicas[0].port,
              map.entries[i].replicas[0].port);
  }

  const std::string text = render_prefix_map(map);
  EXPECT_NE(text.find("epoch 1"), std::string::npos);
  EXPECT_NE(text.find("[00-54] 127.0.0.1:9301"), std::string::npos);
  EXPECT_NE(text.find("[aa-ff] 127.0.0.1:9303"), std::string::npos);

  EXPECT_EQ(prefix_map_entry_of(map, 0), 0u);
  EXPECT_EQ(prefix_map_entry_of(map, 84), 0u);
  EXPECT_EQ(prefix_map_entry_of(map, 85), 1u);
  EXPECT_EQ(prefix_map_entry_of(map, 255), 2u);
}

TEST(PrefixMap, ValidationCatchesEveryStructuralViolation) {
  std::string error;
  const PrefixMap good = uniform_prefix_map({loopback(1), loopback(2)});

  PrefixMap gap = good;
  gap.entries[1].lo = 129;  // hole at 128
  EXPECT_FALSE(validate_prefix_map(gap, error));

  PrefixMap overlap = good;
  overlap.entries[1].lo = 127;
  EXPECT_FALSE(validate_prefix_map(overlap, error));

  PrefixMap short_cover = good;
  short_cover.entries[1].hi = 254;
  EXPECT_FALSE(validate_prefix_map(short_cover, error));

  PrefixMap no_replicas = good;
  no_replicas.entries[0].replicas.clear();
  EXPECT_FALSE(validate_prefix_map(no_replicas, error));

  PrefixMap bad_port = good;
  bad_port.entries[0].replicas[0].port = 0;
  EXPECT_FALSE(validate_prefix_map(bad_port, error));

  PrefixMap empty_host = good;
  empty_host.entries[0].replicas[0].host.clear();
  EXPECT_FALSE(validate_prefix_map(empty_host, error));

  PrefixMap none;
  none.epoch = 1;
  EXPECT_FALSE(validate_prefix_map(none, error));

  // Malformed bytes never parse: truncations of a valid serialization.
  const std::string bytes = serialize_prefix_map(good);
  PrefixMap out;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(parse_prefix_map(bytes.substr(0, cut), out, error))
        << "cut " << cut;
  }
  EXPECT_FALSE(parse_prefix_map(bytes + "x", out, error));
}

TEST(PrefixMap, SplitAndMergeRoundTripTheMap) {
  PrefixMap map = uniform_prefix_map({loopback(9301), loopback(9302)});
  std::string error;

  ASSERT_TRUE(split_prefix_map_entry(map, 1, loopback(9303), error))
      << error;
  EXPECT_EQ(map.epoch, 2u);
  ASSERT_EQ(map.entries.size(), 3u);
  EXPECT_EQ(map.entries[1].lo, 128);
  EXPECT_EQ(map.entries[1].hi, 191);
  EXPECT_EQ(map.entries[1].replicas[0].port, 9302);
  EXPECT_EQ(map.entries[2].lo, 192);
  EXPECT_EQ(map.entries[2].hi, 255);
  EXPECT_EQ(map.entries[2].replicas[0].port, 9303);
  EXPECT_TRUE(validate_prefix_map(map, error)) << error;

  // Merging entry 1 into entry 2 hands the combined range to entry 2's
  // replicas (the absorbing side).
  ASSERT_TRUE(merge_prefix_map_entry(map, 1, error)) << error;
  EXPECT_EQ(map.epoch, 3u);
  ASSERT_EQ(map.entries.size(), 2u);
  EXPECT_EQ(map.entries[1].lo, 128);
  EXPECT_EQ(map.entries[1].hi, 255);
  EXPECT_EQ(map.entries[1].replicas[0].port, 9303);
  EXPECT_TRUE(validate_prefix_map(map, error)) << error;

  // Degenerate shapes refuse cleanly.
  PrefixMap tiny;
  tiny.epoch = 1;
  tiny.entries.push_back({0, 0, loopback(1)});
  tiny.entries.push_back({1, 255, loopback(2)});
  EXPECT_FALSE(split_prefix_map_entry(tiny, 0, loopback(3), error));
  EXPECT_FALSE(split_prefix_map_entry(tiny, 9, loopback(3), error));
  EXPECT_FALSE(split_prefix_map_entry(tiny, 1, {}, error));
  EXPECT_FALSE(merge_prefix_map_entry(tiny, 1, error));  // last entry
  EXPECT_FALSE(merge_prefix_map_entry(tiny, 7, error));
}

TEST(SliceSidecar, CodecRoundTripsAndRejectsGarbage) {
  corpus::KeyCountMap counts;
  corpus::RevocationStatusMap statuses;
  counts[0x1122334455667788ull] = 7;
  counts[0xdeadbeefull] = 1;
  scan::CertFingerprint fp{};
  fp[0] = 0xc0;
  fp[15] = 0x0d;
  statuses[fp] = pki::RevocationStatus::kRevoked;

  const std::string blob = serialize_slice_sidecar(counts, statuses);
  corpus::KeyCountMap counts_out;
  corpus::RevocationStatusMap statuses_out;
  std::string error;
  ASSERT_TRUE(parse_slice_sidecar(blob, counts_out, statuses_out, error))
      << error;
  EXPECT_EQ(counts_out, counts);
  ASSERT_EQ(statuses_out.size(), 1u);
  EXPECT_EQ(statuses_out.at(fp), pki::RevocationStatus::kRevoked);

  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    corpus::KeyCountMap c;
    corpus::RevocationStatusMap s;
    EXPECT_FALSE(parse_slice_sidecar(blob.substr(0, cut), c, s, error))
        << "cut " << cut;
  }
  {
    corpus::KeyCountMap c;
    corpus::RevocationStatusMap s;
    EXPECT_FALSE(parse_slice_sidecar(blob + std::string(1, '\0'), c, s,
                                     error));
    std::string bad_status = blob;
    bad_status.back() = 0x63;  // not a RevocationStatus
    EXPECT_FALSE(parse_slice_sidecar(bad_status, c, s, error));
  }
}

// ---- the shared world fixture -------------------------------------------

/// One in-process live backend: the `sm_notaryd --shard-prefix` /
/// `--empty` shape — LiveCorpus + NotaryService + ReshardHost behind a
/// real TcpServer.
struct LiveBackend {
  std::optional<corpus::LiveCorpus> live;
  std::optional<NotaryService> service;
  std::optional<ReshardHost> reshard;
  std::optional<netio::TcpServer> server;
  std::uint16_t port = 0;

  void start(scan::ScanArchive slice, const net::RoutingHistory* routing,
             corpus::RevocationStatusMap statuses,
             corpus::KeyCountMap key_counts) {
    live.emplace(std::move(slice), routing, nullptr, std::move(statuses),
                 std::move(key_counts));
    NotaryServiceConfig config;
    config.cache_bytes = 1 << 20;
    service.emplace(build_live_index(*live->snapshot()), config);
    reshard.emplace(*live, *service);
    netio::ServerConfig server_config;
    server_config.workers = 2;
    server.emplace(server_config,
                   [this](netio::FrameType type, std::string_view payload,
                          std::string& out) {
                     if (!reshard->handle(type, payload, out)) {
                       service->handle_into(type, payload, out);
                     }
                   });
    std::string error;
    ASSERT_TRUE(server->start(&error)) << error;
    port = server->port();
  }
};

class ReshardWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simworld::WorldConfig config;
    config.seed = 11;
    config.device_count = 120;
    config.website_count = 40;
    config.schedule.scale = 0.1;
    world_ = new simworld::WorldResult(simworld::World(config).run());
    const scan::ScanArchive& full = world_->archive;

    key_counts_ = new corpus::KeyCountMap();
    for (const scan::CertRecord& cert : full.certs()) {
      ++(*key_counts_)[cert.key_fingerprint];
    }

    oracle_spine_ = new corpus::CorpusIndex(
        full, corpus::CorpusOptions{&world_->routing, nullptr});
    NotaryIndexOptions oracle_options;
    oracle_options.revocation_statuses = &world_->revocation.statuses;
    oracle_index_ = new NotaryIndex(*oracle_spine_, oracle_options);
    oracle_ = new NotaryService(*oracle_index_);
  }

  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
    delete oracle_index_;
    oracle_index_ = nullptr;
    delete oracle_spine_;
    oracle_spine_ = nullptr;
    delete key_counts_;
    key_counts_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  /// Starts a backend serving the [lo, hi] slice with the full-corpus
  /// sidecars, exactly like `sm_notaryd --shard-prefix`.
  static void start_slice(LiveBackend& backend, std::uint8_t lo,
                          std::uint8_t hi) {
    backend.start(corpus::extract_prefix_slice(world_->archive, lo, hi),
                  &world_->routing, world_->revocation.statuses,
                  *key_counts_);
  }

  static netio::Frame ask(std::uint16_t port, netio::FrameType type,
                          std::string_view payload) {
    LoopbackClient client(port);
    EXPECT_TRUE(client.connected());
    EXPECT_TRUE(client.send_frame(type, payload));
    netio::Frame response;
    EXPECT_TRUE(client.read_frame(response));
    return response;
  }

  /// The kSliceSend driver payload: move [lo, hi] to 127.0.0.1:target.
  static std::string slice_send_payload(std::uint8_t lo, std::uint8_t hi,
                                        std::uint16_t target) {
    const std::string host = "127.0.0.1";
    std::string payload;
    payload.push_back(static_cast<char>(lo));
    payload.push_back(static_cast<char>(hi));
    payload.push_back(static_cast<char>(target & 0xff));
    payload.push_back(static_cast<char>(target >> 8));
    payload.push_back(static_cast<char>(host.size()));
    payload += host;
    return payload;
  }

  static std::string range_payload(std::uint8_t lo, std::uint8_t hi) {
    std::string payload;
    payload.push_back(static_cast<char>(lo));
    payload.push_back(static_cast<char>(hi));
    return payload;
  }

  static simworld::WorldResult* world_;
  static corpus::KeyCountMap* key_counts_;
  static corpus::CorpusIndex* oracle_spine_;
  static NotaryIndex* oracle_index_;
  static NotaryService* oracle_;
};

simworld::WorldResult* ReshardWorldTest::world_ = nullptr;
corpus::KeyCountMap* ReshardWorldTest::key_counts_ = nullptr;
corpus::CorpusIndex* ReshardWorldTest::oracle_spine_ = nullptr;
NotaryIndex* ReshardWorldTest::oracle_index_ = nullptr;
NotaryService* ReshardWorldTest::oracle_ = nullptr;

// ---- LiveCorpus slice merge / retire ------------------------------------

// A fresh successor that merges a full slice answers byte-identically to
// the unsharded oracle for every fingerprint it now owns — and still
// kNotFound for everything it does not. [0, 255] is the whole corpus as
// a slice: the shape every sm_notaryd serves by default, seeded directly
// (with the full-corpus key counts and statuses as sidecars) as well as
// merged into a successor.
TEST_F(ReshardWorldTest, MergedSliceAnswersLikeTheOracle) {
  const std::pair<std::uint8_t, std::uint8_t> ranges[] = {{128, 255},
                                                          {0, 255}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(::testing::Message() << "slice " << int{lo} << "-" << int{hi});
    const scan::ScanArchive slice =
        corpus::extract_prefix_slice(world_->archive, lo, hi);
    corpus::LiveCorpus successor(scan::ScanArchive{}, &world_->routing);
    std::ostringstream smar;
    ASSERT_TRUE(scan::save_archive(slice, smar));
    std::istringstream in(smar.str());
    const corpus::AppendResult result = successor.merge_slice(
        in, key_counts_, &world_->revocation.statuses);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.new_certs, 0u);
    EXPECT_GT(result.scans_appended, 0u);

    const auto snap = successor.snapshot();
    EXPECT_EQ(snap->epoch, 1u);
    EXPECT_EQ(snap->archive->scans().size(), world_->archive.scans().size());
    corpus::LiveCorpus seeded(slice, &world_->routing, nullptr,
                              world_->revocation.statuses, *key_counts_);
    NotaryService merged_service(build_live_index(*snap));
    NotaryService seeded_service(build_live_index(*seeded.snapshot()));
    for (const scan::CertRecord& cert : world_->archive.certs()) {
      const std::string payload = fp_payload(cert.fingerprint);
      for (const netio::FrameType type :
           {netio::FrameType::kQuery, netio::FrameType::kRevocationQuery}) {
        for (NotaryService* service : {&merged_service, &seeded_service}) {
          const netio::Frame got = service->handle(type, payload);
          if (cert.fingerprint[0] >= lo && cert.fingerprint[0] <= hi) {
            const netio::Frame want = oracle_->handle(type, payload);
            ASSERT_EQ(got.type, want.type);
            ASSERT_EQ(got.payload, want.payload);
          } else {
            ASSERT_EQ(got.type, netio::FrameType::kNotFound);
          }
        }
      }
    }
  }
}

// Catch-up rounds: round 1 streams everything, later rounds re-list the
// range's certificates (intern dedups) but carry only the scans the
// receiver has not merged yet. Two rounds must converge on exactly the
// one-shot slice.
TEST_F(ReshardWorldTest, CatchUpRoundsConvergeOnTheOneShotSlice) {
  constexpr std::uint8_t kLo = 0, kHi = 127;
  const scan::ScanArchive& full = world_->archive;
  const std::size_t split = full.scans().size() / 2;
  ASSERT_GT(split, 0u);

  corpus::LiveCorpus stepwise(scan::ScanArchive{}, &world_->routing);
  {
    // Round 1: the slice as of "scan count == split".
    const scan::ScanArchive early = corpus::extract_segment(full, 0, split);
    std::ostringstream smar;
    ASSERT_TRUE(scan::save_archive(
        corpus::extract_prefix_slice(early, kLo, kHi), smar));
    std::istringstream in(smar.str());
    const auto r1 = stepwise.merge_slice(in, key_counts_, nullptr);
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(r1.scans_appended, split);
  }
  {
    // Round 2: the corpus grew; only scans [split, end) travel.
    std::ostringstream smar;
    ASSERT_TRUE(scan::save_archive(
        corpus::extract_prefix_slice(full, kLo, kHi, split), smar));
    std::istringstream in(smar.str());
    const auto r2 = stepwise.merge_slice(in, key_counts_, nullptr);
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.scans_appended, full.scans().size() - split);
  }

  corpus::LiveCorpus oneshot(scan::ScanArchive{}, &world_->routing);
  {
    std::ostringstream smar;
    ASSERT_TRUE(scan::save_archive(
        corpus::extract_prefix_slice(full, kLo, kHi), smar));
    std::istringstream in(smar.str());
    ASSERT_TRUE(oneshot.merge_slice(in, key_counts_, nullptr).ok);
  }

  const auto a = stepwise.snapshot();
  const auto b = oneshot.snapshot();
  ASSERT_EQ(a->archive->certs().size(), b->archive->certs().size());
  ASSERT_EQ(a->archive->scans().size(), b->archive->scans().size());
  EXPECT_EQ(a->archive->observation_count(), b->archive->observation_count());
  NotaryService stepwise_service(build_live_index(*a));
  NotaryService oneshot_service(build_live_index(*b));
  for (const scan::CertRecord& cert : full.certs()) {
    if (cert.fingerprint[0] > kHi) continue;
    const std::string payload = fp_payload(cert.fingerprint);
    const netio::Frame x =
        stepwise_service.handle(netio::FrameType::kQuery, payload);
    const netio::Frame y =
        oneshot_service.handle(netio::FrameType::kQuery, payload);
    ASSERT_EQ(x.type, y.type);
    ASSERT_EQ(x.payload, y.payload);
  }
}

// retire_prefix drops the range, remaps ids, and its delta forces a full
// cache flush — a cached render must never survive under a reused id.
TEST_F(ReshardWorldTest, RetireFlushesEveryCachedRender) {
  constexpr std::uint8_t kLo = 128, kHi = 255;
  corpus::LiveCorpus live(world_->archive, &world_->routing, nullptr,
                          world_->revocation.statuses, *key_counts_);
  NotaryServiceConfig config;
  config.cache_bytes = 1 << 20;
  NotaryService service(build_live_index(*live.snapshot()), config);

  // Warm the cache across the whole corpus.
  for (const scan::CertRecord& cert : world_->archive.certs()) {
    ASSERT_EQ(service
                  .handle(netio::FrameType::kQuery,
                          fp_payload(cert.fingerprint))
                  .type,
              netio::FrameType::kCertInfo);
  }

  const std::size_t before = live.snapshot()->archive->certs().size();
  const corpus::AppendResult result = live.retire_prefix(kLo, kHi);
  ASSERT_TRUE(result.ok) << result.error;
  const auto snap = live.snapshot();
  // The delta spans every id of the old AND new epoch: ids were remapped.
  EXPECT_EQ(result.delta_size,
            std::max(before, snap->archive->certs().size()));
  publish_live_snapshot(*snap, service);

  for (const scan::CertRecord& cert : world_->archive.certs()) {
    const std::string payload = fp_payload(cert.fingerprint);
    const netio::Frame got =
        service.handle(netio::FrameType::kQuery, payload);
    if (cert.fingerprint[0] >= kLo) {
      ASSERT_EQ(got.type, netio::FrameType::kNotFound);
    } else {
      const netio::Frame want =
          oracle_->handle(netio::FrameType::kQuery, payload);
      ASSERT_EQ(got.type, want.type);
      // Byte-identical even though every id below the cut was remapped
      // and re-rendered.
      ASSERT_EQ(got.payload, want.payload);
    }
  }
}

// ---- ReshardHost wire protocol ------------------------------------------

TEST_F(ReshardWorldTest, TransferProtocolRefusesMalformedAndConcurrent) {
  LiveBackend backend;
  start_slice(backend, 0, 255);

  // Malformed begin/retire payloads.
  EXPECT_EQ(ask(backend.port, netio::FrameType::kSliceBegin, "x").type,
            netio::FrameType::kError);
  EXPECT_EQ(ask(backend.port, netio::FrameType::kSliceBegin,
                range_payload(9, 3))
                .type,
            netio::FrameType::kError);
  EXPECT_EQ(ask(backend.port, netio::FrameType::kSliceRetire, "abc").type,
            netio::FrameType::kError);
  EXPECT_EQ(ask(backend.port, netio::FrameType::kSliceSend, "tiny").type,
            netio::FrameType::kError);

  // Segment / done without a transfer in progress.
  EXPECT_EQ(
      ask(backend.port, netio::FrameType::kSliceSegment, "\x01payload").type,
      netio::FrameType::kError);
  EXPECT_EQ(ask(backend.port, netio::FrameType::kSliceDone, "").type,
            netio::FrameType::kError);

  // One transfer at a time; an unknown stream id aborts it.
  LoopbackClient first(backend.port);
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.send_frame(netio::FrameType::kSliceBegin,
                               range_payload(0, 127)));
  netio::Frame response;
  ASSERT_TRUE(first.read_frame(response));
  ASSERT_EQ(response.type, netio::FrameType::kSliceInfo);
  EXPECT_EQ(ask(backend.port, netio::FrameType::kSliceBegin,
                range_payload(128, 255))
                .type,
            netio::FrameType::kError);
  ASSERT_TRUE(first.send_frame(netio::FrameType::kSliceSegment, "\x07???"));
  ASSERT_TRUE(first.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kError);
  // The abort freed the slot: a new transfer may begin.
  ASSERT_TRUE(first.send_frame(netio::FrameType::kSliceBegin,
                               range_payload(128, 255)));
  ASSERT_TRUE(first.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kSliceInfo);

  backend.server->shutdown();
}

// ---- the acceptance bar -------------------------------------------------

// Split one shard into two and merge back, over real sockets, while a
// client hammers the router: zero failed queries, and every response —
// before, during, after — byte-identical to the unsharded oracle.
TEST_F(ReshardWorldTest, SplitAndMergeBackUnderLoadMatchesOracle) {
  LiveBackend left, right, successor;
  start_slice(left, 0, 127);
  start_slice(right, 128, 255);
  successor.start(scan::ScanArchive{}, &world_->routing, {}, {});

  RouterConfig router_config;
  router_config.shards.push_back({loopback(left.port)});
  router_config.shards.push_back({loopback(right.port)});
  router_config.pool.ping_interval_ms = 50;
  RouterService router(std::move(router_config));
  netio::ServerConfig server_config;
  server_config.workers = 4;
  netio::TcpServer router_server(
      server_config, [&router](netio::FrameType type,
                               std::string_view payload, std::string& out) {
        router.handle_into(type, payload, out);
      });
  ASSERT_TRUE(router_server.start());

  std::vector<scan::CertFingerprint> probes;
  for (const scan::CertRecord& cert : world_->archive.certs()) {
    probes.push_back(cert.fingerprint);
  }

  // Sustained load for the whole test: every response must be a valid
  // kCertInfo (all probes are corpus hits — kNotFound or kError means the
  // handoff dropped knowledge on the floor).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> load_queries{0};
  std::atomic<std::uint64_t> load_failures{0};
  std::thread load([&] {
    LoopbackClient client(router_server.port());
    if (!client.connected()) {
      load_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    netio::Frame response;
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string payload = fp_payload(probes[i++ % probes.size()]);
      if (!client.send_frame(netio::FrameType::kQuery, payload) ||
          !client.read_frame(response) ||
          response.type != netio::FrameType::kCertInfo) {
        load_failures.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      load_queries.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto sweep = [&](const char* phase) {
    LoopbackClient client(router_server.port());
    ASSERT_TRUE(client.connected());
    netio::Frame routed;
    for (const scan::CertFingerprint& fp : probes) {
      const std::string payload = fp_payload(fp);
      for (const netio::FrameType type :
           {netio::FrameType::kQuery, netio::FrameType::kRevocationQuery}) {
        ASSERT_TRUE(client.send_frame(type, payload)) << phase;
        ASSERT_TRUE(client.read_frame(routed)) << phase;
        const netio::Frame direct = oracle_->handle(type, payload);
        ASSERT_EQ(routed.type, direct.type)
            << phase << " prefix " << int(fp[0]);
        ASSERT_EQ(routed.payload, direct.payload) << phase;
      }
    }
  };
  sweep("before");
  EXPECT_EQ(router.map_epoch(), 1u);

  // SPLIT: [c0-ff] moves from `right` to `successor` — stream, swap,
  // drain, retire, exactly the sm_reshard sequence.
  {
    const netio::Frame streamed =
        ask(right.port, netio::FrameType::kSliceSend,
            slice_send_payload(192, 255, successor.port));
    ASSERT_EQ(streamed.type, netio::FrameType::kSliceInfo)
        << streamed.payload;

    PrefixMap next = router.current_map();
    std::string error;
    ASSERT_TRUE(
        split_prefix_map_entry(next, 1, loopback(successor.port), error))
        << error;
    const netio::Frame swapped =
        ask(router_server.port(), netio::FrameType::kMapUpdate,
            serialize_prefix_map(next));
    ASSERT_EQ(swapped.type, netio::FrameType::kMapInfo) << swapped.payload;

    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // drain
    const netio::Frame retired = ask(
        right.port, netio::FrameType::kSliceRetire, range_payload(192, 255));
    ASSERT_EQ(retired.type, netio::FrameType::kSliceInfo) << retired.payload;
  }
  sweep("after-split");
  EXPECT_EQ(router.map_epoch(), 2u);
  EXPECT_EQ(router.shard_count(), 3u);

  // MERGE back: [80-bf] follows, collapsing entries 1 and 2 onto the
  // successor (the absorbing side keeps the combined range).
  {
    const netio::Frame streamed =
        ask(right.port, netio::FrameType::kSliceSend,
            slice_send_payload(128, 191, successor.port));
    ASSERT_EQ(streamed.type, netio::FrameType::kSliceInfo)
        << streamed.payload;

    PrefixMap next = router.current_map();
    std::string error;
    ASSERT_TRUE(merge_prefix_map_entry(next, 1, error)) << error;
    const netio::Frame swapped =
        ask(router_server.port(), netio::FrameType::kMapUpdate,
            serialize_prefix_map(next));
    ASSERT_EQ(swapped.type, netio::FrameType::kMapInfo) << swapped.payload;

    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // drain
    const netio::Frame retired = ask(
        right.port, netio::FrameType::kSliceRetire, range_payload(128, 191));
    ASSERT_EQ(retired.type, netio::FrameType::kSliceInfo) << retired.payload;
  }
  sweep("after-merge");
  EXPECT_EQ(router.map_epoch(), 3u);
  EXPECT_EQ(router.shard_count(), 2u);

  stop.store(true, std::memory_order_relaxed);
  load.join();
  EXPECT_EQ(load_failures.load(), 0u);
  EXPECT_GT(load_queries.load(), 0u);

  // The swaps are visible in ROUTER-STATS.
  const netio::Frame stats =
      ask(router_server.port(), netio::FrameType::kStats, "");
  ASSERT_EQ(stats.type, netio::FrameType::kStatsText);
  EXPECT_NE(stats.payload.find("map-epoch: 3"), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find("map-swaps: 2"), std::string::npos);

  // A stale map (same epoch) is refused — swaps must advance the epoch.
  const netio::Frame stale =
      ask(router_server.port(), netio::FrameType::kMapUpdate,
          serialize_prefix_map(router.current_map()));
  EXPECT_EQ(stale.type, netio::FrameType::kError);

  router_server.shutdown();
  left.server->shutdown();
  right.server->shutdown();
  successor.server->shutdown();
}

}  // namespace
}  // namespace sm::notary
