#include "simworld/world.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "pki/verifier.h"
#include "scan/permutation.h"
#include "util/hex.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "x509/builder.h"

namespace sm::simworld {

namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;

/// Per-replica lease-interval cap. Only degenerately tiny leases (shorter
/// than scan_window / 12) can hit it; when they do the overflow is counted
/// in WorldResult::dropped_lease_intervals rather than dropped silently.
constexpr std::size_t kMaxLeaseIntervals = 12;

std::uint64_t mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  util::SplitMix64 sm(a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                      (c * 0xc2b2ae3d27d4eb4fULL));
  return sm.next();
}

/// An ISP's address pools flattened into one index space, plus per-epoch
/// affine permutations that hand dynamic devices a fresh pool-wide IP each
/// lease epoch without collisions between slots.
struct IspRuntime {
  IspConfig cfg;
  std::vector<std::uint64_t> pool_base;  // cumulative sizes
  std::uint64_t total = 0;
  std::uint32_t next_slot = 0;

  explicit IspRuntime(IspConfig c) : cfg(std::move(c)) {
    for (const net::Prefix& pool : cfg.pools) {
      pool_base.push_back(total);
      total += pool.size();
    }
  }

  /// The address of position `index` within pool `pool_index`.
  net::Ipv4Address addr_in_pool(std::size_t pool_index,
                                std::uint64_t index) const {
    return net::Ipv4Address(static_cast<std::uint32_t>(
        cfg.pools[pool_index].address().value() + index));
  }

  /// Position of `slot` within pool `pool_index` under the affine
  /// permutation keyed by `epoch_key`. Devices are pinned to one regional
  /// pool, so a prefix transfer carries its subscribers to the new AS
  /// instead of scattering them across the donor's other pools.
  std::uint64_t permute(std::size_t pool_index, std::uint32_t slot,
                        std::uint64_t epoch_key) const {
    const std::uint64_t size = cfg.pools[pool_index].size();
    const std::uint64_t h = mix3(cfg.asn, epoch_key, 0x51ee7 + pool_index);
    std::uint64_t a = (h | 1) % size;
    if (a == 0) a = 1;
    while (std::gcd(a, size) != 1) {
      a += 2;
      if (a >= size) a = 1;
    }
    const std::uint64_t b =
        mix3(cfg.asn, epoch_key, 0xb1a5 + pool_index) % size;
    return (a * (slot % size) + b) % size;
  }
};

std::string format_mac(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02X:%02X:%02X:%02X:%02X:%02X",
                static_cast<unsigned>(h & 0xff),
                static_cast<unsigned>((h >> 8) & 0xff),
                static_cast<unsigned>((h >> 16) & 0xff),
                static_cast<unsigned>((h >> 24) & 0xff),
                static_cast<unsigned>((h >> 32) & 0xff),
                static_cast<unsigned>((h >> 40) & 0xff));
  return buf;
}

std::string hex_token(std::uint64_t h, int digits) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (int i = 0; i < digits; ++i) {
    out.push_back(kDigits[h & 0xf]);
    h >>= 4;
  }
  return out;
}

/// A lease interval overlapping one scan window.
struct Interval {
  util::UnixTime from, to;
  std::int64_t epoch;
  util::UnixTime lease_start;
};

/// One planned probe response. `issue_index` is the index of the last
/// entry of DevicePlan::issues planned at the time of the hit (-1 when the
/// device still serves a certificate issued before this scan); the commit
/// phase interns issues up to it before appending the observation, which
/// reproduces the serial intern/observe interleaving exactly.
struct PlannedHit {
  std::uint32_t ip = 0;
  std::int32_t issue_index = -1;
};

/// Everything one device contributes to one scan, computed in the parallel
/// plan phase and applied by the serial commit. Buffers are reused across
/// scans (clear keeps capacity).
struct DevicePlan {
  std::vector<scan::CertRecord> issues;
  std::vector<PlannedHit> hits;
  std::uint32_t dropped = 0;
};

/// A device's planned ISP move for one round (plan phase output; the slot
/// is assigned at commit because `next_slot` is shared per ISP).
struct MoveDecision {
  bool moved = false;
  bool new_static = false;
  std::uint32_t new_isp = 0;
  std::uint32_t new_pool = 0;
};

}  // namespace

WorldConfig WorldConfig::tiny() {
  WorldConfig c;
  c.seed = 7;
  c.device_count = 220;
  c.website_count = 90;
  c.schedule.scale = 0.12;
  return c;
}

WorldConfig WorldConfig::paper() {
  WorldConfig c;
  c.seed = 42;
  c.device_count = 5000;
  c.website_count = 1700;
  c.schedule.scale = 0.45;
  return c;
}

struct World::DeviceState {
  std::uint32_t vendor = 0;
  std::uint32_t isp = 0;
  std::uint32_t pool = 0;  ///< home pool within the ISP
  std::uint32_t slot = 0;
  bool static_ip = false;
  bool is_website = false;
  std::uint32_t replication = 1;
  util::UnixTime born = 0;

  std::string name;
  std::string mac;

  crypto::SigningKey stable_key;
  bool has_stable_key = false;
  std::int64_t current_epoch = -1;
  scan::CertId current_cert = 0;
  std::uint64_t serial_counter = 0;
  std::int64_t reissue_period = 0;  ///< per-device jittered period

  /// Values that are constant per (isp, pool, slot+replica) but were
  /// recomputed in the scan inner loop: the lease-phase offset and the
  /// static-assignment address. Refreshed on every ISP move.
  struct ReplicaCache {
    std::int64_t lease_phase = 0;
    net::Ipv4Address static_addr{};
  };
  std::vector<ReplicaCache> replicas;
};

class World::Impl {
 public:
  Impl(const WorldConfig& config, util::ThreadPool* pool)
      : config_(config),
        master_rng_(config.seed),
        workers_(pool != nullptr ? *pool : util::ThreadPool::global()) {}

  WorldResult run();

 private:
  using DeviceState = World::DeviceState;

  void build_topology();
  void build_pki();
  void build_population();
  void build_blacklists();
  void build_revocation();
  void maybe_move_devices();
  void run_scan(std::size_t scan_index, const scan::ScanEvent& event);

  void plan_device(std::uint32_t device_id,
                   const scan::AddressPermutation& perm,
                   const scan::PrefixSet& blacklist,
                   const scan::ScanEvent& event, DevicePlan& plan);
  void plan_hit(std::uint32_t device_id, DevicePlan& plan,
                util::UnixTime probe, std::int64_t lease_epoch,
                util::UnixTime lease_start, net::Ipv4Address current_ip);
  scan::CertRecord build_cert_record(std::uint32_t device_id,
                                     std::int64_t epoch_id,
                                     util::UnixTime issue_time,
                                     net::Ipv4Address current_ip);
  MoveDecision plan_move(std::uint32_t device_id, std::uint64_t move_round);
  void refresh_replica_cache(DeviceState& device) const;

  util::Rng rng_at(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return util::Rng(mix3(config_.seed ^ a, b, c));
  }

  std::uint32_t pick_isp(const VendorProfile& vendor, util::Rng& rng,
                         bool website);

  const VendorProfile& vendor_of(const DeviceState& device) const {
    return device.is_website ? website_profiles_[device.vendor]
                             : device_profiles_[device.vendor];
  }

  WorldConfig config_;
  util::Rng master_rng_;
  std::uint64_t move_round_ = 0;
  util::ThreadPool& workers_;

  std::vector<IspRuntime> isps_;
  std::vector<std::size_t> transit_isps_;  // indices into isps_
  std::vector<std::size_t> content_isps_;
  std::vector<PrefixTransfer> transfers_;

  std::vector<VendorProfile> device_profiles_;
  std::vector<VendorProfile> website_profiles_;
  std::vector<crypto::SigningKey> vendor_shared_keys_;  // per device profile

  // CA infrastructure.
  struct CaEntry {
    crypto::SigningKey key;
    x509::Certificate cert;
    // The AuthorityKeyIdentifier of every certificate this CA issues: the
    // first 20 bytes of its SPKI fingerprint, computed once.
    util::Bytes aki;
  };
  std::vector<CaEntry> root_cas_;  // retained: roots sign CRLs too
  std::map<std::string, CaEntry> trusted_intermediates_;
  std::map<std::string, CaEntry> vendor_cas_;

  std::vector<DeviceState> devices_;

  // Per-scan plan buffers, indexed by device id (reused across scans).
  std::vector<DevicePlan> plans_;
  std::vector<MoveDecision> moves_;

  WorldResult result_;
  pki::IntermediatePool intermediates_;
  // Memoizing validator over roots/intermediates; constructed once both
  // stores are final (its memo caches by certificate address) and shared by
  // every planning thread.
  std::optional<pki::BatchVerifier> verifier_;
  util::UnixTime study_start_ = 0;
  util::UnixTime study_end_ = 0;
};

// --- topology ---------------------------------------------------------------

void World::Impl::build_topology() {
  const std::vector<IspConfig> configs = default_isps();
  isps_.reserve(configs.size());
  for (const IspConfig& cfg : configs) isps_.emplace_back(cfg);
  for (std::size_t i = 0; i < isps_.size(); ++i) {
    if (isps_[i].cfg.type == net::AsType::kTransitAccess) {
      transit_isps_.push_back(i);
    } else if (isps_[i].cfg.type == net::AsType::kContent) {
      content_isps_.push_back(i);
    }
  }
  transfers_ = default_transfers(configs);
  result_.as_db = build_as_database(configs);
  result_.routing = build_routing_history(
      configs, transfers_, study_start_ - 365 * kDay);
}

// --- PKI ---------------------------------------------------------------------

void World::Impl::build_pki() {
  util::Rng rng = rng_at(0xca, 0, 0);
  const auto make_ca = [&](const std::string& cn, const CaEntry* parent,
                           std::uint64_t serial) {
    CaEntry entry;
    entry.key = crypto::generate_keypair(config_.scheme, rng, config_.rsa_bits);
    const x509::Name subject = x509::Name::with_common_name(cn);
    const x509::Name issuer =
        parent ? parent->cert.subject : subject;
    const crypto::SigningKey& signer = parent ? parent->key : entry.key;
    x509::KeyUsage ca_usage;
    ca_usage.set(x509::KeyUsageBit::kKeyCertSign)
        .set(x509::KeyUsageBit::kCrlSign);
    entry.cert = x509::CertificateBuilder()
                     .set_serial(bignum::BigUint(serial))
                     .set_issuer(issuer)
                     .set_subject(subject)
                     .set_validity(util::make_date(2005, 1, 1),
                                   util::make_date(2035, 1, 1))
                     .set_public_key(entry.key.pub)
                     .set_basic_constraints(true)
                     .set_key_usage(ca_usage)
                     .sign(signer);
    entry.aki = entry.key.pub.fingerprint();
    entry.aki.resize(20);
    return entry;
  };

  // Trusted roots (retained in root_cas_: they sign the revocation
  // ecosystem's CRLs after the campaigns).
  for (int i = 0; i < 3; ++i) {
    root_cas_.push_back(
        make_ca("SM Research Root CA " + std::to_string(i + 1), nullptr,
                static_cast<std::uint64_t>(100 + i)));
    result_.roots.add(root_cas_.back().cert);
  }

  // One trusted intermediate per distinct website issuer name.
  std::uint64_t serial = 1000;
  for (const VendorProfile& profile : website_profiles_) {
    if (trusted_intermediates_.contains(profile.fixed_issuer)) continue;
    const CaEntry& parent =
        root_cas_[trusted_intermediates_.size() % root_cas_.size()];
    CaEntry entry = make_ca(profile.fixed_issuer, &parent, ++serial);
    intermediates_.add(entry.cert);
    trusted_intermediates_.emplace(profile.fixed_issuer, std::move(entry));
  }

  // Untrusted vendor CAs (self-signed, never in the root store). Sharded
  // vendors get several regional CA instances.
  for (const VendorProfile& profile : device_profiles_) {
    if (profile.issuer_policy != IssuerPolicy::kVendorCa) continue;
    for (std::uint32_t shard = 0; shard < profile.vendor_ca_shards; ++shard) {
      std::string name = profile.fixed_issuer;
      if (profile.vendor_ca_shards > 1) {
        name += " " + std::to_string(shard + 1);
      }
      if (vendor_cas_.contains(name)) continue;
      CaEntry entry = make_ca(name, nullptr, ++serial);
      intermediates_.add(entry.cert);
      vendor_cas_.emplace(std::move(name), std::move(entry));
    }
  }

  // Vendor-wide shared keypairs (the Lancom pathology).
  for (const VendorProfile& profile : device_profiles_) {
    vendor_shared_keys_.push_back(
        profile.key_policy == KeyPolicy::kGlobalShared
            ? crypto::generate_keypair(config_.scheme, rng, config_.rsa_bits)
            : crypto::SigningKey{});
  }
}

// --- population ---------------------------------------------------------------

std::uint32_t World::Impl::pick_isp(const VendorProfile& vendor,
                                    util::Rng& rng, bool website) {
  if (!vendor.preferred_ases.empty()) {
    const net::Asn asn = vendor.preferred_ases[rng.below(
        vendor.preferred_ases.size())];
    for (std::size_t i = 0; i < isps_.size(); ++i) {
      if (isps_[i].cfg.asn == asn) return static_cast<std::uint32_t>(i);
    }
  }
  const std::vector<std::size_t>& candidates =
      website ? content_isps_ : transit_isps_;
  double total_share = 0;
  for (const std::size_t i : candidates) total_share += isps_[i].cfg.device_share;
  double pick = rng.unit() * total_share;
  for (const std::size_t i : candidates) {
    pick -= isps_[i].cfg.device_share;
    if (pick <= 0) return static_cast<std::uint32_t>(i);
  }
  return static_cast<std::uint32_t>(candidates.back());
}

void World::Impl::refresh_replica_cache(DeviceState& device) const {
  const IspRuntime& isp = isps_[device.isp];
  device.replicas.resize(device.replication);
  for (std::uint32_t replica = 0; replica < device.replication; ++replica) {
    const std::uint32_t slot = device.slot + replica;
    DeviceState::ReplicaCache& cache = device.replicas[replica];
    cache.lease_phase =
        isp.cfg.lease_seconds > 0
            ? static_cast<std::int64_t>(
                  mix3(0x9a5e, slot, isp.cfg.asn) %
                  static_cast<std::uint64_t>(isp.cfg.lease_seconds))
            : 0;
    cache.static_addr =
        isp.addr_in_pool(device.pool, isp.permute(device.pool, slot, 0x57a71c));
  }
}

void World::Impl::build_population() {
  // Cumulative weights for vendor selection.
  const auto pick_vendor = [](const std::vector<VendorProfile>& profiles,
                              util::Rng& rng) {
    double total = 0;
    for (const VendorProfile& p : profiles) total += p.weight;
    double pick = rng.unit() * total;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      pick -= profiles[i].weight;
      if (pick <= 0) return static_cast<std::uint32_t>(i);
    }
    return static_cast<std::uint32_t>(profiles.size() - 1);
  };

  const std::size_t total =
      config_.device_count + config_.website_count;
  devices_.reserve(total);
  for (std::size_t n = 0; n < total; ++n) {
    const bool website = n >= config_.device_count;
    util::Rng rng = rng_at(0xde5, n, 0);
    DeviceState d;
    d.is_website = website;
    const auto& profiles = website ? website_profiles_ : device_profiles_;
    d.vendor = pick_vendor(profiles, rng);
    const VendorProfile& vendor = profiles[d.vendor];
    d.isp = pick_isp(vendor, rng, website);
    IspRuntime& isp = isps_[d.isp];
    d.pool = static_cast<std::uint32_t>(rng.below(isp.cfg.pools.size()));
    d.replication = vendor.replication_max > 1
                        ? 1 + static_cast<std::uint32_t>(
                                  rng.below(vendor.replication_max))
                        : 1;
    d.slot = isp.next_slot;
    isp.next_slot += d.replication;
    d.static_ip = website || rng.chance(isp.cfg.static_fraction);
    // Birth: a fraction of the population predates the study; the rest
    // arrives during it (websites skew early).
    const double late_fraction =
        website ? 0.3 : config_.late_birth_fraction;
    if (rng.chance(late_fraction)) {
      d.born = study_start_ +
               static_cast<std::int64_t>(rng.unit() * static_cast<double>(
                                             study_end_ - study_start_));
    } else {
      d.born = study_start_ - rng.range(30, 720) * kDay;
    }
    const std::uint64_t token = mix3(config_.seed, 0x1d, n);
    d.name = hex_token(token, 10);
    d.mac = format_mac(token);
    if (vendor.reissue_period_mean > 0) {
      const double jitter = 0.7 + 0.6 * rng.unit();
      d.reissue_period = std::max<std::int64_t>(
          kDay, static_cast<std::int64_t>(
                    static_cast<double>(vendor.reissue_period_mean) * jitter));
    }
    refresh_replica_cache(d);
    devices_.push_back(std::move(d));
  }
  result_.true_device_count = config_.device_count;
  result_.true_website_count = config_.website_count;
}

void World::Impl::build_blacklists() {
  util::Rng rng = rng_at(0xb1ac, 0, 0);
  for (const IspRuntime& isp : isps_) {
    for (const net::Prefix& pool : isp.cfg.pools) {
      // Blacklist at /20 granularity so missing hosts spread across the
      // address space as in Figure 1.
      const std::uint32_t base = pool.address().value();
      for (std::uint32_t child = 0; child < 16; ++child) {
        const net::Prefix sub(net::Ipv4Address(base + (child << 12)), 20);
        if (rng.chance(config_.umich_blacklist_fraction)) {
          result_.umich_blacklist.add(sub);
        }
        if (rng.chance(config_.rapid7_blacklist_fraction)) {
          result_.rapid7_blacklist.add(sub);
        }
      }
    }
  }
}

// --- certificate issuance -------------------------------------------------------

scan::CertRecord World::Impl::build_cert_record(std::uint32_t device_id,
                                                std::int64_t epoch_id,
                                                util::UnixTime issue_time,
                                                net::Ipv4Address current_ip) {
  DeviceState& d = devices_[device_id];
  const VendorProfile& vendor = vendor_of(d);
  util::Rng rng = rng_at(0x15 + device_id, static_cast<std::uint64_t>(epoch_id),
                         0xce27);

  // --- key material ---
  crypto::SigningKey key;
  switch (vendor.key_policy) {
    case KeyPolicy::kGlobalShared:
      key = vendor_shared_keys_[d.vendor];
      break;
    case KeyPolicy::kStablePerDevice:
      if (!d.has_stable_key) {
        util::Rng key_rng = rng_at(0x6e7, device_id, 0);
        d.stable_key =
            crypto::generate_keypair(config_.scheme, key_rng, config_.rsa_bits);
        d.has_stable_key = true;
      }
      key = d.stable_key;
      break;
    case KeyPolicy::kFreshPerReissue:
      key = crypto::generate_keypair(config_.scheme, rng, config_.rsa_bits);
      break;
  }

  // --- names ---
  std::string cn;
  switch (vendor.cn_policy) {
    case CnPolicy::kFixed:
      cn = vendor.fixed_cn;
      break;
    case CnPolicy::kDeviceUnique:
      cn = vendor.unique_prefix + d.name;
      break;
    case CnPolicy::kPublicIp:
      cn = current_ip.to_string();
      break;
    case CnPolicy::kEmpty:
      break;
    case CnPolicy::kDynDns:
      cn = d.name + "." + vendor.dyndns_suffix;
      break;
  }
  x509::Name subject;
  if (vendor.cn_policy != CnPolicy::kEmpty) {
    subject = x509::Name::with_common_name(cn);
  }

  x509::Name issuer;
  const crypto::SigningKey* signer = &key;
  const CaEntry* issuing_ca = nullptr;
  switch (vendor.issuer_policy) {
    case IssuerPolicy::kSameAsSubject:
      issuer = subject;
      break;
    case IssuerPolicy::kFixedName:
      issuer = x509::Name::with_common_name(vendor.fixed_issuer);
      break;
    case IssuerPolicy::kEmpty:
      break;
    case IssuerPolicy::kDeviceMac:
      issuer = x509::Name::with_common_name(vendor.fixed_issuer + d.mac);
      break;
    case IssuerPolicy::kVendorCa: {
      std::string ca_name = vendor.fixed_issuer;
      if (vendor.vendor_ca_shards > 1) {
        const std::uint32_t shard = static_cast<std::uint32_t>(
            mix3(config_.seed, 0xca5d, device_id) % vendor.vendor_ca_shards);
        ca_name += " " + std::to_string(shard + 1);
      }
      const CaEntry& ca = vendor_cas_.at(ca_name);
      issuer = ca.cert.subject;
      signer = &ca.key;
      issuing_ca = &ca;
      break;
    }
    case IssuerPolicy::kTrustedCa: {
      const CaEntry& ca = trusted_intermediates_.at(vendor.fixed_issuer);
      issuer = ca.cert.subject;
      signer = &ca.key;
      issuing_ca = &ca;
      break;
    }
  }

  // --- clock / validity ---
  // Device firmware truncates NotBefore to the minute; combined with stuck
  // factory clocks, this is what makes NotBefore/NotAfter heavily
  // non-unique (Table 5) and lets them "link" unrelated certificates that
  // merely collide on a timestamp, with poor consistency (Table 6).
  util::UnixTime not_before = (issue_time / 60) * 60;
  if (rng.chance(vendor.clock.stuck_clock_prob)) {
    not_before = vendor.clock.stuck_clock_date;
  } else if (rng.chance(vendor.clock.clock_ahead_prob)) {
    not_before = not_before + rng.range(1, 30) * kDay;
  }
  util::UnixTime not_after;
  if (rng.chance(vendor.clock.negative_validity_prob)) {
    not_after = not_before - rng.range(1, 400) * kDay;
  } else if (rng.chance(vendor.clock.far_future_prob)) {
    not_after = not_before + rng.range(988, 2800) * 365 * kDay;
  } else {
    // The validity period is a firmware constant (exactly 20 years etc.),
    // which is why the paper's Figure 3 invalid CDF has hard steps.
    not_after = not_before + vendor.validity_seconds;
  }

  // --- serial ---
  bignum::BigUint serial;
  switch (vendor.serial_policy) {
    case SerialPolicy::kRandom:
      serial = bignum::BigUint(rng() >> 1);
      break;
    case SerialPolicy::kFixedOne:
      if (vendor.factory_shards > 1) {
        // Firmware-batch serial: identical across the batch, so batch
        // members produce byte-identical certificates.
        serial = bignum::BigUint(
            1 + mix3(config_.seed, 0xfac, device_id) % vendor.factory_shards);
      } else {
        serial = bignum::BigUint(1);
      }
      break;
    case SerialPolicy::kIncrementing:
      serial = bignum::BigUint(++d.serial_counter);
      break;
    case SerialPolicy::kResetting:
      serial = bignum::BigUint(1 + (d.serial_counter++ % 3));
      break;
  }

  // --- build ---
  x509::CertificateBuilder builder;
  builder.set_serial(serial)
      .set_issuer(issuer)
      .set_subject(subject)
      .set_validity(not_before, not_after)
      .set_public_key(key.pub);
  if (rng.chance(vendor.illegal_version_prob)) {
    builder.set_raw_version(rng.chance(0.5) ? 3 : 12);
  }
  std::vector<x509::GeneralName> sans;
  for (const std::string& fixed : vendor.fixed_sans) {
    const std::size_t colon = fixed.find(':');
    sans.push_back(x509::GeneralName{x509::GeneralName::Kind::kDns,
                                     fixed.substr(colon + 1)});
  }
  if (vendor.san_includes_device_name) {
    sans.push_back(x509::GeneralName{x509::GeneralName::Kind::kDns,
                                     d.name + "." + vendor.dyndns_suffix});
  }
  if (!sans.empty()) builder.set_subject_alt_names(sans);
  // Revocation-infrastructure endpoints are rare on device certificates and
  // device-specific where present (self-hosted management CAs embed the
  // device identity in the URL), which is what makes CRL/AIA/OCSP/OID small
  // but *high-consistency* linking features in Table 6. Websites use their
  // CA's shared endpoints instead.
  const bool device_endpoints =
      vendor.issuer_policy != IssuerPolicy::kTrustedCa;
  const std::string endpoint_host =
      device_endpoints ? d.name + "." + vendor.name + ".example"
                       : vendor.name + ".example";
  if (rng.chance(vendor.crl_prob)) {
    builder.set_crl_distribution_points(
        {"http://crl." + endpoint_host + "/current.crl"});
  }
  const bool want_ocsp = rng.chance(vendor.ocsp_prob);
  const bool want_aia = rng.chance(vendor.aia_prob);
  if (want_ocsp || want_aia) {
    builder.set_authority_info_access(
        want_ocsp ? std::vector<std::string>{"http://ocsp." + endpoint_host}
                  : std::vector<std::string>{},
        want_aia ? std::vector<std::string>{"http://ca." + endpoint_host +
                                            "/ca.crt"}
                 : std::vector<std::string>{});
  }
  if (rng.chance(vendor.policy_oid_prob)) {
    if (device_endpoints) {
      // Private-arc OID derived from the device identity.
      builder.set_policy_oids({asn1::Oid{
          {1, 3, 6, 1, 4, 1, 99999, 2,
           static_cast<std::uint32_t>(mix3(config_.seed, 0x01d, device_id) &
                                      0xffffff)}}});
    } else {
      builder.set_policy_oids(
          {asn1::Oid{{2, 23, 140, 1, 2, static_cast<std::uint32_t>(
                                            1 + rng.below(3))}}});
    }
  }
  if (issuing_ca != nullptr) {
    // CA-issued certificates carry an AuthorityKeyIdentifier, giving the
    // §5.3 issuer-key-diversity analysis something to read, and the usual
    // TLS-server KeyUsage.
    builder.set_authority_key_id(issuing_ca->aki);
    if (vendor.issuer_policy == IssuerPolicy::kTrustedCa) {
      x509::KeyUsage usage;
      usage.set(x509::KeyUsageBit::kDigitalSignature)
          .set(x509::KeyUsageBit::kKeyEncipherment);
      builder.set_key_usage(usage);
      builder.set_extended_key_usage(
          {asn1::oids::kp_server_auth(), asn1::oids::kp_client_auth()});
    }
  }
  const x509::Certificate cert = builder.sign(*signer);

  // --- validate (the paper's openssl-verify step, §4.2) ---
  // The shared BatchVerifier memoizes the CA-level sub-checks across all
  // planning threads; results are identical to a per-call pki::Verifier.
  std::vector<x509::Certificate> presented;
  if (issuing_ca != nullptr) {
    // Websites usually present their chain; devices rarely do — the gap is
    // what the transvalid machinery closes.
    const double present_prob =
        vendor.issuer_policy == IssuerPolicy::kTrustedCa ? 0.9 : 0.4;
    if (rng.chance(present_prob)) presented.push_back(issuing_ca->cert);
  }
  const pki::ValidationResult validation = verifier_->verify(cert, presented);

  return scan::make_cert_record(cert, validation);
}

void World::Impl::plan_hit(std::uint32_t device_id, DevicePlan& plan,
                           util::UnixTime probe, std::int64_t lease_epoch,
                           util::UnixTime lease_start,
                           net::Ipv4Address current_ip) {
  DeviceState& d = devices_[device_id];
  const VendorProfile& vendor = vendor_of(d);
  std::int64_t time_epoch = 0;
  util::UnixTime issue_time = d.born;
  if (d.reissue_period > 0 && probe > d.born) {
    time_epoch = (probe - d.born) / d.reissue_period;
    issue_time = d.born + time_epoch * d.reissue_period;
  }
  std::int64_t ip_epoch = 0;
  if (vendor.reissue_on_ip_change && !d.static_ip) {
    ip_epoch = lease_epoch;
    issue_time = std::max(issue_time, lease_start);
  }
  // ip_epoch is bounded by study_days/lease_days << 1e6, so this composite
  // id is collision-free.
  const std::int64_t epoch_id = time_epoch * 1000000 + ip_epoch;
  if (epoch_id != d.current_epoch) {
    plan.issues.push_back(build_cert_record(
        device_id, epoch_id, std::max(issue_time, d.born), current_ip));
    d.current_epoch = epoch_id;
  }
  plan.hits.push_back(PlannedHit{
      current_ip.value(), static_cast<std::int32_t>(plan.issues.size()) - 1});
}

// --- scanning --------------------------------------------------------------

MoveDecision World::Impl::plan_move(std::uint32_t device_id,
                                    std::uint64_t move_round) {
  MoveDecision decision;
  DeviceState& d = devices_[device_id];
  if (d.is_website) return decision;
  const VendorProfile& vendor = vendor_of(d);
  // ISP churn concentrates in dynamic networks (mobile / daily-lease);
  // static-ISP subscribers rarely switch providers.
  const bool dynamic_isp =
      isps_[d.isp].cfg.lease_seconds < 7 * kDay && !d.static_ip;
  const double p = vendor.mobility + config_.base_move_probability +
                   (dynamic_isp ? 0.0015 : 0.0);
  if (p <= 0) return decision;
  util::Rng rng = rng_at(0x30f3, device_id, move_round);
  if (!rng.chance(p)) return decision;
  const std::uint32_t new_isp = pick_isp(vendor, rng, false);
  if (new_isp == d.isp) return decision;  // same provider: no move happened
  const IspRuntime& isp = isps_[new_isp];
  decision.moved = true;
  decision.new_isp = new_isp;
  decision.new_pool = static_cast<std::uint32_t>(rng.below(isp.cfg.pools.size()));
  decision.new_static = rng.chance(isp.cfg.static_fraction);
  return decision;
}

void World::Impl::maybe_move_devices() {
  const std::uint64_t move_round = ++move_round_;
  moves_.resize(devices_.size());
  // Plan: per-device decisions are independently seeded
  // (rng_at(0x30f3, device_id, round)), so they shard freely.
  workers_.parallel_for(
      devices_.size(), 256, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          moves_[i] = plan_move(static_cast<std::uint32_t>(i), move_round);
        }
      });
  // Commit in device order: slot assignment consumes the target ISP's
  // shared next_slot counter.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const MoveDecision& decision = moves_[i];
    if (!decision.moved) continue;
    DeviceState& d = devices_[i];
    d.isp = decision.new_isp;
    d.pool = decision.new_pool;
    IspRuntime& isp = isps_[d.isp];
    d.slot = isp.next_slot;
    isp.next_slot += d.replication;
    d.static_ip = decision.new_static;
    refresh_replica_cache(d);
  }
}

void World::Impl::plan_device(std::uint32_t device_id,
                              const scan::AddressPermutation& perm,
                              const scan::PrefixSet& blacklist,
                              const scan::ScanEvent& event, DevicePlan& plan) {
  plan.issues.clear();
  plan.hits.clear();
  plan.dropped = 0;
  DeviceState& d = devices_[device_id];
  const util::UnixTime start = event.start;
  const util::UnixTime end = event.start + event.duration_seconds;
  if (d.born >= end) return;
  const IspRuntime& isp = isps_[d.isp];
  for (std::uint32_t replica = 0; replica < d.replication; ++replica) {
    const std::uint32_t slot = d.slot + replica;
    const DeviceState::ReplicaCache& cache = d.replicas[replica];
    // The lease intervals overlapping the scan window: one for static
    // devices, one per lease epoch for dynamic devices.
    Interval intervals[kMaxLeaseIntervals];
    std::size_t interval_count = 0;
    if (d.static_ip) {
      intervals[interval_count++] = Interval{start, end, -1, d.born};
    } else {
      const std::int64_t lease = isp.cfg.lease_seconds;
      const std::int64_t phase = cache.lease_phase;
      std::int64_t e = (start - phase) / lease;
      for (; phase + e * lease < end; ++e) {
        const util::UnixTime lease_from = phase + e * lease;
        const util::UnixTime lease_to = lease_from + lease;
        intervals[interval_count++] = Interval{std::max(start, lease_from),
                                               std::min(end, lease_to), e,
                                               lease_from};
        if (interval_count >= kMaxLeaseIntervals) {
          // Degenerate tiny leases: count what the cap drops instead of
          // losing it silently.
          plan.dropped +=
              static_cast<std::uint32_t>((end - 1 - phase) / lease - e);
          break;
        }
      }
    }
    for (std::size_t k = 0; k < interval_count; ++k) {
      const Interval& interval = intervals[k];
      const net::Ipv4Address ip =
          d.static_ip
              ? cache.static_addr
              : isp.addr_in_pool(
                    d.pool,
                    isp.permute(d.pool, slot,
                                0x1ea5e000ULL + static_cast<std::uint64_t>(
                                                    interval.epoch)));
      const util::UnixTime probe =
          scan::probe_time(perm, ip, start, event.duration_seconds);
      if (probe < interval.from || probe >= interval.to) continue;
      if (probe < d.born) continue;
      if (blacklist.covers(ip)) continue;
      plan_hit(device_id, plan, probe, interval.epoch, interval.lease_start,
               ip);
    }
  }
}

void World::Impl::run_scan(std::size_t scan_index,
                           const scan::ScanEvent& event) {
  const scan::AddressPermutation perm(
      mix3(config_.seed, 0x5ca9, scan_index));
  const scan::PrefixSet& blacklist = event.campaign == scan::Campaign::kUMich
                                         ? result_.umich_blacklist
                                         : result_.rapid7_blacklist;

  // Plan phase: each device's probe hits and certificate builds (the x509
  // build + hash + sign work) shard across the pool. Safe because a device
  // is planned by exactly one chunk, everything shared is read-only, and
  // certificate validation goes through the thread-safe BatchVerifier.
  plans_.resize(devices_.size());
  workers_.parallel_for(
      devices_.size(), 16, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          plan_device(static_cast<std::uint32_t>(i), perm, blacklist, event,
                      plans_[i]);
        }
      });

  // Commit phase: intern certificates and append observations in canonical
  // device order — the exact sequence the serial loop produced, so archive
  // ids and bytes are identical at any thread count.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    DevicePlan& plan = plans_[i];
    DeviceState& d = devices_[i];
    result_.dropped_lease_intervals += plan.dropped;
    std::int32_t committed = -1;
    for (const PlannedHit& hit : plan.hits) {
      while (committed < hit.issue_index) {
        ++committed;
        d.current_cert = result_.archive.intern(
            std::move(plan.issues[static_cast<std::size_t>(committed)]));
        ++result_.issued_certificates;
      }
      result_.archive.add_observation(scan_index, d.current_cert, hit.ip,
                                      static_cast<scan::DeviceId>(i));
    }
  }
}

// --- revocation ecosystem ---------------------------------------------------

void World::Impl::build_revocation() {
  const WorldConfig::RevocationKnobs& knobs = config_.revocation;

  revocation::EcosystemConfig eco;
  eco.seed = mix3(config_.seed, 0x4e0c, 0);
  // Clients check one day after the last scan starts, so "fresh" CRLs
  // published the day before are still inside their validity window.
  eco.check_time = study_end_ + kDay;
  eco.stale_fraction = knobs.stale_fraction;
  eco.unreachable_fraction = knobs.unreachable_fraction;
  eco.ocsp_unknown_fraction = knobs.ocsp_unknown_fraction;
  eco.ocsp_unreachable_fraction = knobs.ocsp_unreachable_fraction;
  eco.baseline_revoked_fraction = knobs.baseline_revoked_fraction;
  eco.mass_event_enabled = knobs.mass_event_enabled;
  eco.mass_event_issuer =
      x509::Name::with_common_name(knobs.mass_event_ca).to_string();
  eco.mass_event_fraction = knobs.mass_event_fraction;
  eco.mass_event_time = study_start_ + (study_end_ - study_start_) / 2;

  auto ecosystem = std::make_shared<revocation::Ecosystem>(eco);
  // Every CA is a publisher, and every CA certificate is store-resident
  // (roots in the root store, intermediates and vendor CAs in the
  // intermediate pool), so clients can verify every CRL signature.
  for (const CaEntry& root : root_cas_) {
    ecosystem->add_authority(root.cert.subject.to_string(), root.cert,
                             root.key, /*trusted=*/true);
  }
  for (const auto& [name, entry] : trusted_intermediates_) {
    ecosystem->add_authority(entry.cert.subject.to_string(), entry.cert,
                             entry.key, /*trusted=*/true);
  }
  for (const auto& [name, entry] : vendor_cas_) {
    ecosystem->add_authority(entry.cert.subject.to_string(), entry.cert,
                             entry.key, /*trusted=*/true);
  }
  const scan::CertTable& certs = result_.archive.certs();
  for (const scan::CertRecord& rec : certs) {
    ecosystem->add_certificate(rec.issuer_dn, rec.serial_hex, rec.not_before);
  }
  ecosystem->publish();

  // Mechanism pass: the same BatchVerifier that classified every issued
  // certificate now fetches, parses and signature-checks the published
  // CRLs — per issuer once, shared by every certificate of that issuer.
  std::vector<pki::RevocationQuery> queries;
  queries.reserve(certs.size());
  for (const scan::CertRecord& rec : certs) {
    queries.push_back({rec.issuer_dn, rec.serial_hex, !rec.crl_url.empty(),
                       !rec.ocsp_url.empty()});
  }
  const std::vector<pki::RevocationStatus> statuses =
      verifier_->check_revocation_all(queries, *ecosystem, eco.check_time,
                                      &workers_);
  result_.revocation.statuses.reserve(certs.size());
  for (std::size_t i = 0; i < certs.size(); ++i) {
    result_.revocation.statuses.emplace(certs[i].fingerprint, statuses[i]);
  }
  result_.revocation.ecosystem = std::move(ecosystem);
  result_.revocation.check_time = eco.check_time;
}

WorldResult World::Impl::run() {
  util::Rng schedule_rng = rng_at(0x5c4ed, 0, 0);
  result_.schedule = scan::make_paper_schedule(config_.schedule, schedule_rng);
  if (result_.schedule.empty()) {
    throw std::logic_error("empty scan schedule");
  }
  study_start_ = result_.schedule.front().start;
  study_end_ = result_.schedule.back().start;

  website_profiles_ = default_website_profiles();
  device_profiles_ = default_vendor_profiles();

  build_topology();
  build_pki();
  // Both stores are final now; the memo may cache by certificate address.
  verifier_.emplace(result_.roots, intermediates_);
  build_population();
  build_blacklists();

  for (std::size_t i = 0; i < result_.schedule.size(); ++i) {
    if (i > 0) maybe_move_devices();
    const std::size_t scan_index =
        result_.archive.begin_scan(result_.schedule[i]);
    run_scan(scan_index, result_.schedule[i]);
  }
  if (config_.revocation.enabled) build_revocation();
  result_.verify_stats = verifier_->stats();
  return std::move(result_);
}

World::World(WorldConfig config, util::ThreadPool* pool)
    : config_(std::move(config)), pool_(pool) {}

WorldResult World::run() {
  Impl impl(config_, pool_);
  return impl.run();
}

}  // namespace sm::simworld
