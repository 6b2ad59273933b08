// Live-ingestion tests: LiveCorpus appends must replay to the same bytes
// a cold build produces, deltas must cover exactly the certificates whose
// knowledge changed, NotaryService::publish must drop only those cached
// renders, and — the core epoch/RCU guarantee — queries racing a snapshot
// swap over real loopback TCP must see either the old or the new epoch's
// bytes, never a torn mix. This binary also runs under TSan and ASan in
// scripts/tier1.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loopback_client.h"
#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "netio/frame.h"
#include "netio/server.h"
#include "notary/index.h"
#include "notary/service.h"
#include "scan/archive_io.h"
#include "simworld/world.h"

namespace sm::corpus {
namespace {

using notary::NotaryIndex;
using notary::NotaryService;
using notary::NotaryServiceConfig;
using notary::render_knowledge;
using sm::testing::LoopbackClient;

constexpr std::size_t kSegments = 3;
constexpr std::size_t kScansPerSegment = 2;

// One micro world split once: a base corpus plus three serialized SMAR
// segments every test appends. Same world as notary_loopback_test.
class LiveIngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simworld::WorldConfig config;
    config.seed = 11;
    config.device_count = 120;
    config.website_count = 40;
    config.schedule.scale = 0.1;
    world_ = new simworld::WorldResult(simworld::World(config).run());

    const std::size_t total = world_->archive.scans().size();
    ASSERT_GT(total, kSegments * kScansPerSegment + 2);
    base_count_ = total - kSegments * kScansPerSegment;
    base_ = new scan::ScanArchive(
        extract_segment(world_->archive, 0, base_count_));
    segments_ = new std::vector<std::string>();
    for (std::size_t k = 0; k < kSegments; ++k) {
      const std::size_t first = base_count_ + k * kScansPerSegment;
      std::ostringstream out;
      ASSERT_TRUE(scan::save_archive(
          extract_segment(world_->archive, first, first + kScansPerSegment),
          out));
      segments_->push_back(std::move(out).str());
    }
  }

  static void TearDownTestSuite() {
    delete segments_;
    segments_ = nullptr;
    delete base_;
    base_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  static std::unique_ptr<LiveCorpus> make_live() {
    return std::make_unique<LiveCorpus>(*base_, &world_->routing);
  }

  static AppendResult append(LiveCorpus& live, std::size_t k) {
    std::istringstream in((*segments_)[k]);
    return live.append_segment(in);
  }

  static std::shared_ptr<const NotaryIndex> index_of(
      const LiveSnapshot& snap) {
    return std::make_shared<const NotaryIndex>(*snap.spine);
  }

  static std::string fp_payload(const scan::ScanArchive& archive,
                                scan::CertId id) {
    const auto& fp = archive.cert(id).fingerprint;
    return std::string(reinterpret_cast<const char*>(fp.data()), fp.size());
  }

  static simworld::WorldResult* world_;
  static scan::ScanArchive* base_;
  static std::vector<std::string>* segments_;
  static std::size_t base_count_;
};

simworld::WorldResult* LiveIngestTest::world_ = nullptr;
scan::ScanArchive* LiveIngestTest::base_ = nullptr;
std::vector<std::string>* LiveIngestTest::segments_ = nullptr;
std::size_t LiveIngestTest::base_count_ = 0;

// Appending the three segments must converge on exactly what a cold build
// over the full scan range produces: same certificates (ids included —
// interning is first-observation order in both), same scan count, and
// byte-identical rendered knowledge for every certificate.
TEST_F(LiveIngestTest, ReplayedAppendsMatchTheColdBuild) {
  const auto live = make_live();
  EXPECT_EQ(live->snapshot()->epoch, 0u);
  for (std::size_t k = 0; k < kSegments; ++k) {
    const AppendResult result = append(*live, k);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.scans_appended, kScansPerSegment);
    EXPECT_EQ(live->snapshot()->epoch, k + 1);
  }

  const scan::ScanArchive cold_archive =
      extract_segment(world_->archive, 0, world_->archive.scans().size());
  const CorpusIndex cold_spine(cold_archive,
                               CorpusOptions{&world_->routing, nullptr});
  const NotaryIndex cold(cold_spine);

  const auto snap = live->snapshot();
  const NotaryIndex hot(*snap->spine);
  EXPECT_EQ(snap->archive->scans().size(), cold_archive.scans().size());
  ASSERT_EQ(hot.size(), cold.size());
  for (scan::CertId id = 0; id < hot.size(); ++id) {
    ASSERT_EQ(snap->archive->cert(id).fingerprint,
              cold_archive.cert(id).fingerprint)
        << "cert " << id;
    ASSERT_EQ(render_knowledge(hot.knowledge(id)),
              render_knowledge(cold.knowledge(id)))
        << "cert " << id;
  }
}

// A corrupt segment publishes nothing — the snapshot object itself is
// untouched — and leaves the ingest state healthy enough that the real
// segment still appends afterwards.
TEST_F(LiveIngestTest, FailedAppendPublishesNothing) {
  const auto live = make_live();
  const auto before = live->snapshot();

  std::istringstream garbage("this is not an SMAR segment");
  const AppendResult bad = live->append_segment(garbage);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_EQ(live->snapshot().get(), before.get());

  // Truncated real bytes fail too (streamed reader catches it).
  std::istringstream cut((*segments_)[0].substr(0, 40));
  EXPECT_FALSE(live->append_segment(cut).ok);
  EXPECT_EQ(live->snapshot().get(), before.get());

  const AppendResult good = append(*live, 0);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(live->snapshot()->epoch, 1u);
}

// The delta must be sound for cache invalidation: any certificate *not*
// in it renders byte-identically in the previous and the new epoch, and
// every certificate new to the epoch is in it.
TEST_F(LiveIngestTest, DeltaCoversEveryChangedCertificate) {
  const auto live = make_live();
  auto prev_snap = live->snapshot();
  auto prev_index = index_of(*prev_snap);
  for (std::size_t k = 0; k < kSegments; ++k) {
    const AppendResult result = append(*live, k);
    ASSERT_TRUE(result.ok) << result.error;
    const auto snap = live->snapshot();
    const auto index = index_of(*snap);
    EXPECT_EQ(result.delta_size, snap->delta.size());
    ASSERT_TRUE(std::is_sorted(snap->delta.begin(), snap->delta.end()));
    ASSERT_TRUE(std::adjacent_find(snap->delta.begin(), snap->delta.end()) ==
                snap->delta.end());

    const auto in_delta = [&](scan::CertId id) {
      return std::binary_search(snap->delta.begin(), snap->delta.end(), id);
    };
    for (scan::CertId id = 0; id < index->size(); ++id) {
      if (id >= prev_index->size()) {
        EXPECT_TRUE(in_delta(id)) << "new cert " << id << " not in delta";
      } else if (!in_delta(id)) {
        ASSERT_EQ(render_knowledge(prev_index->knowledge(id)),
                  render_knowledge(index->knowledge(id)))
            << "cert " << id << " changed between epochs " << prev_snap->epoch
            << " and " << snap->epoch << " but is not in the delta";
      }
    }
    prev_snap = snap;
    prev_index = index;
  }
}

// publish() drops exactly the delta's cached renders: untouched
// certificates keep serving from cache across the swap, and everything
// answered after the swap matches the new epoch's bytes.
TEST_F(LiveIngestTest, CacheKeepsUntouchedRendersAcrossSwaps) {
  const auto live = make_live();
  const auto snap0 = live->snapshot();
  const auto index0 = index_of(*snap0);

  NotaryServiceConfig config;
  config.cache_bytes = 32u << 20;  // roomy: nothing is evicted by size
  NotaryService service(index0, config);

  // Warm the cache with every epoch-0 certificate, then prove it's warm.
  const std::size_t size0 = index0->size();
  for (scan::CertId id = 0; id < size0; ++id) {
    const auto frame = service.handle(netio::FrameType::kQuery,
                                      fp_payload(*snap0->archive, id));
    ASSERT_EQ(frame.type, netio::FrameType::kCertInfo);
  }
  for (scan::CertId id = 0; id < size0; ++id) {
    service.handle(netio::FrameType::kQuery, fp_payload(*snap0->archive, id));
  }
  const auto warm = service.metrics();
  ASSERT_EQ(warm.cache_hits, size0);

  const AppendResult result = append(*live, 0);
  ASSERT_TRUE(result.ok) << result.error;
  const auto snap1 = live->snapshot();
  const auto index1 = index_of(*snap1);
  service.publish(index1, snap1->delta);

  const std::size_t stale =
      static_cast<std::size_t>(std::count_if(
          snap1->delta.begin(), snap1->delta.end(),
          [&](scan::CertId id) { return id < size0; }));

  // Every cached pre-swap render of a delta certificate was dropped.
  const auto after_swap = service.metrics();
  EXPECT_EQ(after_swap.epoch, 1u);
  EXPECT_EQ(after_swap.snapshot_swaps, 1u);
  EXPECT_EQ(after_swap.cache_invalidations, stale);

  // Query the full new epoch: old untouched certs hit cache, delta certs
  // and brand-new certs miss — and every byte matches the new epoch.
  for (scan::CertId id = 0; id < index1->size(); ++id) {
    const auto frame = service.handle(netio::FrameType::kQuery,
                                      fp_payload(*snap1->archive, id));
    ASSERT_EQ(frame.type, netio::FrameType::kCertInfo);
    ASSERT_EQ(frame.payload, render_knowledge(index1->knowledge(id)))
        << "cert " << id;
  }
  const auto done = service.metrics();
  EXPECT_EQ(done.cache_hits - warm.cache_hits, size0 - stale);
  EXPECT_EQ(done.cache_misses - warm.cache_misses,
            index1->size() - (size0 - stale));
}

// The tentpole guarantee, over real loopback TCP: clients hammering the
// notary while three epochs publish must read, for every response, bytes
// that are exactly one epoch's render — old or new, never a torn mix —
// and per-connection epochs only move forward. Runs under TSan/ASan.
TEST_F(LiveIngestTest, QueriesRacingPublishesAreNeverTorn) {
  // Pre-build every epoch (snapshot + index + rendered bytes) so clients
  // can verify against the full set while the live publishes race them.
  const auto live = make_live();
  std::vector<std::shared_ptr<const LiveSnapshot>> snaps{live->snapshot()};
  std::vector<std::shared_ptr<const NotaryIndex>> indexes{
      index_of(*snaps[0])};
  for (std::size_t k = 0; k < kSegments; ++k) {
    ASSERT_TRUE(append(*live, k).ok);
    snaps.push_back(live->snapshot());
    indexes.push_back(index_of(*snaps.back()));
  }
  const auto& final_archive = *snaps.back()->archive;
  const std::size_t universe = indexes.back()->size();
  // expected[e][id]: rendered bytes in epoch e, empty when the cert does
  // not exist there yet (a kNotFound answer is the correct response).
  std::vector<std::vector<std::string>> expected(snaps.size());
  for (std::size_t e = 0; e < snaps.size(); ++e) {
    expected[e].resize(universe);
    for (scan::CertId id = 0; id < indexes[e]->size(); ++id) {
      expected[e][id] = render_knowledge(indexes[e]->knowledge(id));
    }
  }

  NotaryServiceConfig config;
  config.cache_bytes = 8u << 20;
  NotaryService service(indexes[0], config);
  netio::ServerConfig server_config;
  server_config.workers = 4;
  netio::TcpServer server(
      server_config, [&service](netio::FrameType type,
                                std::string_view payload) {
        return service.handle(type, payload);
      });
  ASSERT_TRUE(server.start());

  constexpr int kClients = 3;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<int> torn{0};
  std::atomic<int> regressed{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LoopbackClient client(server.port());
      if (!client.connected()) return;
      netio::Frame response;
      std::uint64_t last_epoch = 0;
      for (std::uint64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        const auto id =
            static_cast<scan::CertId>((i + c * 193) % universe);
        if (!client.send_frame(netio::FrameType::kQuery,
                               fp_payload(final_archive, id)) ||
            !client.read_frame(response)) {
          return;
        }
        bool matched = false;
        for (const auto& epoch : expected) {
          if (epoch[id].empty()
                  ? response.type == netio::FrameType::kNotFound
                  : (response.type == netio::FrameType::kCertInfo &&
                     response.payload == epoch[id])) {
            matched = true;
            break;
          }
        }
        if (!matched) torn.fetch_add(1, std::memory_order_relaxed);
        answered.fetch_add(1, std::memory_order_relaxed);
        if (i % 64 == 0) {
          if (!client.send_frame(netio::FrameType::kSnapshot, "") ||
              !client.read_frame(response)) {
            return;
          }
          if (response.type != netio::FrameType::kSnapshotInfo) {
            torn.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const auto pos = response.payload.find("epoch: ");
          const std::uint64_t epoch =
              pos == std::string::npos
                  ? ~0ull
                  : std::strtoull(response.payload.c_str() + pos + 7,
                                  nullptr, 10);
          if (epoch < last_epoch || epoch > kSegments) {
            regressed.fetch_add(1, std::memory_order_relaxed);
          }
          last_epoch = epoch;
        }
      }
    });
  }

  // Publish each epoch only once the clients have demonstrably queried
  // against the previous one, so every swap genuinely races live traffic.
  for (std::size_t k = 1; k <= kSegments; ++k) {
    const std::uint64_t target = answered.load() + 300;
    while (answered.load(std::memory_order_relaxed) < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.publish(indexes[k], snaps[k]->delta);
  }
  const std::uint64_t tail = answered.load() + 300;
  while (answered.load(std::memory_order_relaxed) < tail) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (auto& client : clients) client.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(regressed.load(), 0);
  EXPECT_GE(answered.load(), 1200u);

  // With all publishes retired, every response must be epoch-3 exactly.
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  netio::Frame response;
  for (scan::CertId id = 0; id < universe; ++id) {
    ASSERT_TRUE(client.send_frame(netio::FrameType::kQuery,
                                  fp_payload(final_archive, id)));
    ASSERT_TRUE(client.read_frame(response));
    ASSERT_EQ(response.type, netio::FrameType::kCertInfo);
    ASSERT_EQ(response.payload, expected.back()[id]) << "cert " << id;
  }

  server.shutdown();
  const auto metrics = service.metrics();
  EXPECT_EQ(metrics.epoch, kSegments);
  EXPECT_EQ(metrics.snapshot_swaps, kSegments);
}

// Regression: a certificate revoked mid-ingestion — its new status
// arriving in a segment's status sidecar, not in the scans themselves —
// must join the delta, evict the stale cached render, and flip both
// query forms to "revoked" after the publish.
TEST_F(LiveIngestTest, RevocationLearnedMidIngestionInvalidatesCache) {
  const auto live = make_live();
  const auto snap0 = live->snapshot();
  EXPECT_EQ(snap0->statuses, nullptr);

  NotaryServiceConfig config;
  config.cache_bytes = 8u << 20;
  NotaryService service(index_of(*snap0), config);

  const scan::CertId victim = 0;  // interned by the base corpus
  const auto& fp = snap0->archive->cert(victim).fingerprint;
  const std::string payload = fp_payload(*snap0->archive, victim);

  // Warm the kCertInfo cache; with no status map the revocation render
  // says "unknown".
  netio::Frame frame = service.handle(netio::FrameType::kQuery, payload);
  ASSERT_EQ(frame.type, netio::FrameType::kCertInfo);
  frame = service.handle(netio::FrameType::kRevocationQuery, payload);
  ASSERT_EQ(frame.type, netio::FrameType::kRevocationInfo);
  EXPECT_NE(frame.payload.find("revocation: unknown"), std::string::npos);
  service.handle(netio::FrameType::kQuery, payload);
  ASSERT_GE(service.metrics().cache_hits, 1u);

  // The next segment's sidecar carries the revocation.
  RevocationStatusMap learned;
  learned[fp] = pki::RevocationStatus::kRevoked;
  std::istringstream in((*segments_)[0]);
  const AppendResult result = live->append_segment(in, &learned);
  ASSERT_TRUE(result.ok) << result.error;

  const auto snap1 = live->snapshot();
  ASSERT_NE(snap1->statuses, nullptr);
  EXPECT_EQ(snap1->statuses->at(fp), pki::RevocationStatus::kRevoked);
  // The status change alone — no new observation of it — puts the
  // already-known certificate in the delta.
  EXPECT_TRUE(
      std::binary_search(snap1->delta.begin(), snap1->delta.end(), victim));

  notary::NotaryIndexOptions options;
  options.revocation_statuses = snap1->statuses.get();
  service.publish(
      std::make_shared<const NotaryIndex>(*snap1->spine, options),
      snap1->delta);

  // The publish dropped the victim's cached full render (it was in the
  // delta) and the revocation render flipped.
  EXPECT_GE(service.metrics().cache_invalidations, 1u);
  frame = service.handle(netio::FrameType::kQuery, payload);
  ASSERT_EQ(frame.type, netio::FrameType::kCertInfo);
  frame = service.handle(netio::FrameType::kRevocationQuery, payload);
  ASSERT_EQ(frame.type, netio::FrameType::kRevocationInfo);
  EXPECT_NE(frame.payload.find("revocation: revoked"), std::string::npos)
      << frame.payload;
}

// Epochs share certificate storage: a snapshot held across three appends
// still renders every certificate byte-identically, and its records are
// the very objects the latest epoch reads — full chunks are shared, not
// copied. The base is padded past one chunk so cert 0 sits in a full one.
TEST_F(LiveIngestTest, EpochsShareCertificateChunksAndStayIntact) {
  scan::ScanArchive padded = *base_;
  for (std::uint64_t i = 0; padded.certs().size() <= scan::kCertChunk; ++i) {
    scan::CertRecord filler;  // never observed
    filler.fingerprint.fill(0xee);
    std::memcpy(filler.fingerprint.data() + 1, &i, sizeof i);
    padded.intern(std::move(filler));
  }
  LiveCorpus live(std::move(padded), &world_->routing);
  const auto snap0 = live.snapshot();
  std::vector<std::string> before;
  {
    const auto index0 = index_of(*snap0);
    for (scan::CertId id = 0; id < index0->size(); ++id) {
      before.push_back(render_knowledge(index0->knowledge(id)));
    }
  }
  for (std::size_t k = 0; k < kSegments; ++k) {
    const AppendResult result = append(live, k);
    ASSERT_TRUE(result.ok) << result.error;
  }
  const auto snap_n = live.snapshot();
  EXPECT_EQ(snap_n->epoch, kSegments);
  EXPECT_GT(snap_n->archive->certs().size(), snap0->archive->certs().size());
  EXPECT_EQ(&snap0->archive->cert(0), &snap_n->archive->cert(0));

  const auto again = index_of(*snap0);
  ASSERT_EQ(again->size(), before.size());
  for (scan::CertId id = 0; id < again->size(); ++id) {
    ASSERT_EQ(render_knowledge(again->knowledge(id)), before[id])
        << "cert " << id;
  }
}

// merge_slice appends to a shared certificate table and retire_prefix
// rebuilds it; each still answers exactly as its oracle — a cold index
// over the same certificates with the same full-corpus key degrees.
TEST_F(LiveIngestTest, MergeAndRetireMatchTheirOracles) {
  constexpr std::uint8_t kSplit = 128;
  const scan::ScanArchive& full = world_->archive;
  KeyCountMap counts;
  for (const scan::CertRecord& cert : full.certs()) {
    ++counts[cert.key_fingerprint];
  }
  // Every certificate of `oracle_archive` answers identically from `snap`;
  // every other certificate of the world is unknown to it.
  const auto expect_oracle = [&](const LiveSnapshot& snap,
                                 const scan::ScanArchive& oracle_archive) {
    notary::NotaryIndexOptions options;
    options.key_counts = &counts;
    const CorpusIndex oracle_spine(oracle_archive,
                                   CorpusOptions{&world_->routing, nullptr});
    const NotaryIndex oracle(oracle_spine, options);
    options.key_counts = snap.key_counts.get();
    const NotaryIndex got(*snap.spine, options);
    ASSERT_EQ(got.size(), oracle.size());
    for (const scan::CertRecord& cert : full.certs()) {
      const notary::CertKnowledge* want = oracle.lookup(cert.fingerprint);
      const notary::CertKnowledge* have = got.lookup(cert.fingerprint);
      ASSERT_EQ(have == nullptr, want == nullptr);
      if (want != nullptr) {
        ASSERT_EQ(render_knowledge(*have), render_knowledge(*want));
      }
    }
  };

  LiveCorpus live(extract_prefix_slice(full, 0, kSplit - 1), &world_->routing,
                  nullptr, {}, counts);
  const auto lower = live.snapshot();
  std::ostringstream smar;
  ASSERT_TRUE(scan::save_archive(extract_prefix_slice(full, kSplit, 255),
                                 smar));
  std::istringstream in(smar.str());
  const AppendResult merged = live.merge_slice(in, &counts, nullptr);
  ASSERT_TRUE(merged.ok) << merged.error;
  const auto whole = live.snapshot();
  // Existing ids are stable across the merge.
  for (scan::CertId id = 0; id < lower->archive->certs().size(); ++id) {
    ASSERT_EQ(whole->archive->cert(id).fingerprint,
              lower->archive->cert(id).fingerprint);
  }
  expect_oracle(*whole, full);

  ASSERT_TRUE(live.retire_prefix(kSplit, 255).ok);
  expect_oracle(*live.snapshot(), extract_prefix_slice(full, 0, kSplit - 1));
}

// The kSnapshot request reports the live epoch and its scan horizon over
// the wire, advancing with each publish — the staleness bound a polling
// client keys off.
TEST_F(LiveIngestTest, SnapshotInfoReportsTheLiveEpoch) {
  const auto live = make_live();
  NotaryService service(index_of(*live->snapshot()));
  netio::ServerConfig server_config;
  server_config.workers = 1;
  netio::TcpServer server(
      server_config, [&service](netio::FrameType type,
                                std::string_view payload) {
        return service.handle(type, payload);
      });
  ASSERT_TRUE(server.start());
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());

  netio::Frame response;
  ASSERT_TRUE(client.send_frame(netio::FrameType::kSnapshot, ""));
  ASSERT_TRUE(client.read_frame(response));
  ASSERT_EQ(response.type, netio::FrameType::kSnapshotInfo);
  EXPECT_NE(response.payload.find("epoch: 0\n"), std::string::npos);
  EXPECT_NE(response.payload.find(
                "scans: " + std::to_string(base_count_) + "\n"),
            std::string::npos);

  ASSERT_TRUE(append(*live, 0).ok);
  const auto snap = live->snapshot();
  service.publish(index_of(*snap), snap->delta);

  ASSERT_TRUE(client.send_frame(netio::FrameType::kSnapshot, ""));
  ASSERT_TRUE(client.read_frame(response));
  ASSERT_EQ(response.type, netio::FrameType::kSnapshotInfo);
  EXPECT_NE(response.payload.find("epoch: 1\n"), std::string::npos);
  EXPECT_NE(response.payload.find(
                "scans: " + std::to_string(base_count_ + kScansPerSegment) +
                "\n"),
            std::string::npos);
  EXPECT_NE(response.payload.find(
                "certs: " + std::to_string(service.index().size()) + "\n"),
            std::string::npos);

  server.shutdown();
  EXPECT_EQ(service.metrics().snapshot_requests, 2u);
}

}  // namespace
}  // namespace sm::corpus
