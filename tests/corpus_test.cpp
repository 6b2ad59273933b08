// CorpusIndex correctness: the parallel columnar build (CSR, ASN column,
// per-cert stats, key-sharing degrees) is compared field-by-field against
// a brute-force serial recompute over a simulated world, at 1, 2, and 8
// build threads — any divergence from the serial reference or between
// thread counts fails. A spine extended from an earlier epoch's must equal
// the cold build column for column. Also covers the empty archive,
// interned-but-never-observed certificates, a hand-made archive with a
// mid-study prefix transfer, and the no-routing-history degenerate case.
// Runs under TSan and ASan in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "net/route_table.h"
#include "scan/archive.h"
#include "simworld/world.h"
#include "util/thread_pool.h"

namespace sm::corpus {
namespace {

// The serial reference: everything recomputed the obvious way, straight
// from the archive, one observation at a time.
struct BruteForce {
  std::vector<std::vector<Obs>> obs;            // per cert
  std::vector<std::vector<net::Asn>> asns;      // per cert, parallel
  std::vector<CertStats> stats;                 // per cert
  std::vector<scan::DeviceId> first_device;     // per cert
  std::vector<std::uint32_t> key_degree;        // per cert

  BruteForce(const scan::ScanArchive& archive,
             const net::RoutingHistory* routing) {
    const std::size_t n = archive.certs().size();
    obs.resize(n);
    asns.resize(n);
    stats.resize(n);
    first_device.assign(n, scan::kNoDevice);

    const auto& scans = archive.scans();
    for (std::uint32_t s = 0; s < scans.size(); ++s) {
      const net::RouteTable* table =
          routing == nullptr ? nullptr : routing->at(scans[s].event.start);
      for (const scan::Observation& o : scans[s].observations) {
        if (first_device[o.cert] == scan::kNoDevice) {
          first_device[o.cert] = o.device;
        }
        obs[o.cert].push_back({s, o.ip});
        asns[o.cert].push_back(
            table == nullptr
                ? 0
                : table->lookup(net::Ipv4Address(o.ip)).value_or(0));
      }
    }

    std::map<scan::KeyFingerprint, std::uint32_t> holders;
    for (const scan::CertRecord& cert : archive.certs()) {
      ++holders[cert.key_fingerprint];
    }
    for (const scan::CertRecord& cert : archive.certs()) {
      key_degree.push_back(holders[cert.key_fingerprint]);
    }

    for (std::size_t id = 0; id < n; ++id) {
      CertStats& s = stats[id];
      std::map<std::uint32_t, std::set<std::uint32_t>> ips_by_scan;
      std::set<std::uint32_t> ips;
      std::set<std::uint32_t> slash24s;
      for (const Obs& o : obs[id]) {
        ips_by_scan[o.scan].insert(o.ip);
        ips.insert(o.ip);
        slash24s.insert(o.ip >> 8);
      }
      s.distinct_ips = static_cast<std::uint32_t>(ips.size());
      s.distinct_slash24s = static_cast<std::uint32_t>(slash24s.size());
      if (!ips_by_scan.empty()) {
        s.first_scan = ips_by_scan.begin()->first;
        s.last_scan = ips_by_scan.rbegin()->first;
        s.min_ips_in_scan = ~std::uint32_t{0};
        for (const auto& [scan, ips] : ips_by_scan) {
          ++s.scans_seen;
          const auto count = static_cast<std::uint32_t>(ips.size());
          s.total_ip_scan_slots += count;
          if (count > s.max_ips_in_scan) s.max_ips_in_scan = count;
          if (count < s.min_ips_in_scan) s.min_ips_in_scan = count;
        }
      }
      if (routing != nullptr) {
        // Observation-weighted AS tally over the column; ASN 0 counts as
        // a distinct AS, and majority ties break to the smallest ASN
        // (std::map iterates ascending).
        std::map<net::Asn, std::uint64_t> tally;
        for (const net::Asn asn : asns[id]) ++tally[asn];
        s.distinct_as_count = static_cast<std::uint32_t>(tally.size());
        s.unroutable_seen = tally.contains(0);
        std::uint64_t best = 0;
        for (const auto& [asn, count] : tally) {
          if (count > best) {
            best = count;
            s.majority_as = asn;
          }
        }
      }
    }
  }
};

void expect_stats_eq(const CertStats& got, const CertStats& want,
                     scan::CertId id) {
  EXPECT_EQ(got.scans_seen, want.scans_seen) << "cert " << id;
  EXPECT_EQ(got.first_scan, want.first_scan) << "cert " << id;
  EXPECT_EQ(got.last_scan, want.last_scan) << "cert " << id;
  EXPECT_EQ(got.distinct_ips, want.distinct_ips) << "cert " << id;
  EXPECT_EQ(got.total_ip_scan_slots, want.total_ip_scan_slots)
      << "cert " << id;
  EXPECT_EQ(got.max_ips_in_scan, want.max_ips_in_scan) << "cert " << id;
  EXPECT_EQ(got.min_ips_in_scan, want.min_ips_in_scan) << "cert " << id;
  EXPECT_EQ(got.distinct_slash24s, want.distinct_slash24s) << "cert " << id;
  EXPECT_EQ(got.distinct_as_count, want.distinct_as_count) << "cert " << id;
  EXPECT_EQ(got.majority_as, want.majority_as) << "cert " << id;
  EXPECT_EQ(got.unroutable_seen, want.unroutable_seen) << "cert " << id;
}

void expect_matches(const CorpusIndex& index, const BruteForce& expected) {
  ASSERT_EQ(index.cert_count(), expected.stats.size());
  std::size_t total = 0;
  for (scan::CertId id = 0; id < index.cert_count(); ++id) {
    const auto obs = index.observations(id);
    const auto asns = index.asns(id);
    ASSERT_EQ(obs.size(), expected.obs[id].size()) << "cert " << id;
    ASSERT_EQ(asns.size(), obs.size()) << "cert " << id;
    total += obs.size();
    for (std::size_t i = 0; i < obs.size(); ++i) {
      EXPECT_EQ(obs[i].scan, expected.obs[id][i].scan)
          << "cert " << id << " obs " << i;
      EXPECT_EQ(obs[i].ip, expected.obs[id][i].ip)
          << "cert " << id << " obs " << i;
      EXPECT_EQ(asns[i], expected.asns[id][i])
          << "cert " << id << " obs " << i;
    }
    expect_stats_eq(index.stats(id), expected.stats[id], id);
    EXPECT_EQ(index.first_device(id), expected.first_device[id])
        << "cert " << id;
    EXPECT_EQ(index.key_degree(id), expected.key_degree[id]) << "cert " << id;
  }
  EXPECT_EQ(index.observation_count(), total);
  EXPECT_EQ(index.observation_count(), index.archive().observation_count());
}

// Column-for-column equality of two spines over the same archive.
void expect_same_columns(const CorpusIndex& got, const CorpusIndex& want) {
  ASSERT_EQ(got.cert_count(), want.cert_count());
  ASSERT_EQ(got.scan_count(), want.scan_count());
  ASSERT_EQ(got.observation_count(), want.observation_count());
  for (scan::CertId id = 0; id < want.cert_count(); ++id) {
    const auto obs = got.observations(id);
    const auto want_obs = want.observations(id);
    // Equal row starts at every id mean equal CSR offsets.
    ASSERT_EQ(obs.data() - got.observations(0).data(),
              want_obs.data() - want.observations(0).data())
        << "cert " << id;
    ASSERT_EQ(obs.size(), want_obs.size()) << "cert " << id;
    for (std::size_t i = 0; i < obs.size(); ++i) {
      EXPECT_EQ(obs[i].scan, want_obs[i].scan) << "cert " << id;
      EXPECT_EQ(obs[i].ip, want_obs[i].ip) << "cert " << id;
      EXPECT_EQ(got.asns(id)[i], want.asns(id)[i]) << "cert " << id;
    }
    expect_stats_eq(got.stats(id), want.stats(id), id);
    EXPECT_EQ(got.first_device(id), want.first_device(id)) << "cert " << id;
    EXPECT_EQ(got.key_degree(id), want.key_degree(id)) << "cert " << id;
  }
}

const simworld::WorldResult& small_world() {
  static const simworld::WorldResult world = [] {
    simworld::WorldConfig config;
    config.seed = 7;
    config.device_count = 80;
    config.website_count = 30;
    config.schedule.scale = 0.08;
    return simworld::World(config).run();
  }();
  return world;
}

// Scans [0, last) of `world`, certificates re-interned densely in
// first-observation order: a live corpus's epoch-0 archive.
scan::ScanArchive live_base(const scan::ScanArchive& world, std::size_t last) {
  return extract_segment(world, 0, last);
}

TEST(CorpusIndex, MatchesSerialBruteForceAtEveryThreadCount) {
  const auto& world = small_world();
  const BruteForce expected(world.archive, &world.routing);
  ASSERT_GT(world.archive.certs().size(), 0u);
  ASSERT_GT(world.archive.observation_count(), 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    CorpusOptions options;
    options.routing = &world.routing;
    options.pool = &pool;
    const CorpusIndex index(world.archive, options);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_matches(index, expected);
  }
}

scan::CertRecord record_with_fingerprint(std::uint8_t tag) {
  scan::CertRecord record;
  record.fingerprint.fill(tag);
  return record;
}

// The archive that `prefix` grows into by the world's scans [first, last)
// — the shape LiveCorpus::append_segment produces: every prefix cert and
// scan kept, re-observed certs keep their ids, unseen ones append. The
// extension also interns a never-observed certificate and, observed in
// its first scan, a new holder of cert 0's key.
scan::ScanArchive grow(const scan::ScanArchive& prefix,
                       const scan::ScanArchive& world, std::size_t first,
                       std::size_t last, std::uint8_t tag) {
  scan::ScanArchive next = prefix;
  next.intern(record_with_fingerprint(tag));  // never observed
  scan::CertRecord sharer = record_with_fingerprint(tag + 1);
  sharer.key_fingerprint = prefix.cert(0).key_fingerprint;
  const scan::CertId sharer_id = next.intern(sharer);
  for (std::size_t s = first; s < last; ++s) {
    scan::ScanData scan{world.scans()[s].event, {}};
    for (const scan::Observation& obs : world.scans()[s].observations) {
      scan.observations.push_back(
          {next.intern(world.cert(obs.cert)), obs.ip, obs.device});
    }
    if (s == first) {
      scan.observations.push_back({sharer_id, 0x0a000001, scan::kNoDevice});
    }
    next.add_scan(std::move(scan));
  }
  return next;
}

// A spine extended from an earlier epoch's equals the cold build of the
// grown archive, column for column, at every thread count — whether the
// extension adds one scan or three, and across new certificates,
// re-observed ones, never-observed ones (in the prefix and in the
// extension) and a certificate whose key gains a holder.
TEST(CorpusIndex, ExtendedSpineEqualsColdBuild) {
  const auto& world = small_world();
  const std::size_t scans = world.archive.scans().size();
  ASSERT_GT(scans, 4u);
  scan::ScanArchive base = live_base(world.archive, scans - 3);
  base.intern(record_with_fingerprint(0xe0));  // never observed, in prefix
  const scan::ScanArchive one = grow(base, world.archive, scans - 3,
                                     scans - 2, 0xe1);
  const scan::ScanArchive three = grow(base, world.archive, scans - 3,
                                       scans, 0xe3);
  ASSERT_GT(three.certs().size(), base.certs().size() + 2);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::ThreadPool pool(threads);
    const CorpusOptions options{&world.routing, &pool};
    const CorpusIndex prefix(base, options);
    for (const scan::ScanArchive* grown : {&one, &three}) {
      const CorpusIndex cold(*grown, options);
      const CorpusIndex extended(*grown, prefix, options);
      expect_same_columns(extended, cold);
      expect_matches(cold, BruteForce(*grown, &world.routing));
      // The new holder (at least) raised cert 0's degree.
      EXPECT_GT(extended.key_degree(0), prefix.key_degree(0));
    }
  }
}

TEST(CorpusIndex, ExtendRejectsAnArchiveThatIsNotAnExtension) {
  const auto& world = small_world();
  const std::size_t scans = world.archive.scans().size();
  const scan::ScanArchive base = live_base(world.archive, scans - 2);
  const CorpusIndex prefix(base, CorpusOptions{&world.routing, nullptr});
  // Fewer scans, and a different routing history.
  const scan::ScanArchive shorter = live_base(world.archive, scans - 3);
  EXPECT_THROW(CorpusIndex(shorter, prefix,
                           CorpusOptions{&world.routing, nullptr}),
               std::invalid_argument);
  EXPECT_THROW(CorpusIndex(base, prefix), std::invalid_argument);
}

TEST(CorpusIndex, LifetimeDaysMatchesComputeLifetimes) {
  const auto& world = small_world();
  const CorpusIndex index(world.archive);
  const auto lifetimes = scan::compute_lifetimes(world.archive);
  for (scan::CertId id = 0; id < index.cert_count(); ++id) {
    const double expected = index.stats(id).scans_seen == 0
                                ? 0.0
                                : lifetimes[id].days(world.archive.scans());
    EXPECT_DOUBLE_EQ(index.lifetime_days(id), expected) << "cert " << id;
  }
}

TEST(CorpusIndex, EmptyArchiveYieldsEmptySpine) {
  const scan::ScanArchive archive;
  const CorpusIndex index(archive);
  EXPECT_EQ(index.cert_count(), 0u);
  EXPECT_EQ(index.scan_count(), 0u);
  EXPECT_EQ(index.observation_count(), 0u);
  EXPECT_FALSE(index.has_routing());
}

TEST(CorpusIndex, InternedButNeverObservedCertHasEmptyRow) {
  scan::ScanArchive archive;
  const scan::CertId seen = archive.intern(record_with_fingerprint(1));
  const scan::CertId ghost = archive.intern(record_with_fingerprint(2));
  scan::ScanEvent event;
  event.start = util::make_date(2013, 3, 1);
  const std::size_t scan = archive.begin_scan(event);
  archive.add_observation(scan, seen, 0x0a000001, /*device=*/17);

  const CorpusIndex index(archive);
  EXPECT_EQ(index.cert_count(), 2u);
  EXPECT_EQ(index.observation_count(), 1u);
  EXPECT_TRUE(index.observations(ghost).empty());
  EXPECT_TRUE(index.asns(ghost).empty());
  EXPECT_EQ(index.stats(ghost).scans_seen, 0u);
  EXPECT_EQ(index.stats(ghost).min_ips_in_scan, 0u);
  EXPECT_EQ(index.stats(ghost).total_ip_scan_slots, 0u);
  EXPECT_EQ(index.first_device(ghost), scan::kNoDevice);
  EXPECT_EQ(index.lifetime_days(ghost), 0.0);

  EXPECT_EQ(index.observations(seen).size(), 1u);
  EXPECT_EQ(index.first_device(seen), 17u);
  EXPECT_EQ(index.lifetime_days(seen), 1.0);
}

TEST(CorpusIndex, AsnColumnTracksPrefixTransfersAcrossScans) {
  // One IP, two scans, and a routing history where the covering prefix
  // moves from AS 100 to AS 200 between them — the column must resolve
  // each observation through the snapshot at its own scan's start.
  scan::ScanArchive archive;
  const scan::CertId cert = archive.intern(record_with_fingerprint(3));

  const std::uint32_t ip = net::Ipv4Address::from_octets(10, 1, 2, 3).value();
  const util::UnixTime t1 = util::make_date(2013, 1, 1);
  const util::UnixTime t2 = util::make_date(2013, 6, 1);

  net::RouteTable before;
  before.announce(net::Prefix(net::Ipv4Address(ip), 16), 100);
  net::RouteTable after;
  after.announce(net::Prefix(net::Ipv4Address(ip), 16), 200);
  net::RoutingHistory routing;
  routing.add_snapshot(t1 - 1000, std::move(before));
  routing.add_snapshot(t2 - 1000, std::move(after));

  scan::ScanEvent first;
  first.start = t1;
  archive.add_observation(archive.begin_scan(first), cert, ip, 1);
  scan::ScanEvent second;
  second.start = t2;
  archive.add_observation(archive.begin_scan(second), cert, ip, 1);

  CorpusOptions options;
  options.routing = &routing;
  const CorpusIndex index(archive, options);
  ASSERT_EQ(index.asns(cert).size(), 2u);
  EXPECT_EQ(index.asns(cert)[0], 100u);
  EXPECT_EQ(index.asns(cert)[1], 200u);
  EXPECT_EQ(index.stats(cert).distinct_as_count, 2u);
  // Tie at one observation each: the majority breaks to the smaller ASN.
  EXPECT_EQ(index.stats(cert).majority_as, 100u);
  EXPECT_EQ(index.as_of(0, ip), 100u);
  EXPECT_EQ(index.as_of(1, ip), 200u);
}

TEST(CorpusIndex, NoRoutingHistoryLeavesAsStatsZero) {
  const auto& world = small_world();
  const CorpusIndex index(world.archive);  // no routing supplied
  EXPECT_FALSE(index.has_routing());
  const BruteForce expected(world.archive, nullptr);
  expect_matches(index, expected);
  for (scan::CertId id = 0; id < index.cert_count(); ++id) {
    EXPECT_EQ(index.stats(id).distinct_as_count, 0u);
    EXPECT_EQ(index.stats(id).majority_as, 0u);
    for (const net::Asn asn : index.asns(id)) EXPECT_EQ(asn, 0u);
  }
}

}  // namespace
}  // namespace sm::corpus
