#include "pki/verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/thread_pool.h"
#include "x509/crl.h"

namespace sm::pki {

const char* reason_cstr(InvalidReason reason) {
  switch (reason) {
    case InvalidReason::kNone:
      return "none";
    case InvalidReason::kSelfSigned:
      return "self-signed";
    case InvalidReason::kUntrustedIssuer:
      return "untrusted-issuer";
    case InvalidReason::kBadSignature:
      return "bad-signature";
    case InvalidReason::kMalformedVersion:
      return "malformed-version";
    case InvalidReason::kNeverValid:
      return "never-valid";
    case InvalidReason::kExpired:
      return "expired";
    case InvalidReason::kRevoked:
      return "revoked";
  }
  return "unknown";
}

std::string to_string(InvalidReason reason) { return reason_cstr(reason); }

const char* revocation_status_cstr(RevocationStatus status) {
  switch (status) {
    case RevocationStatus::kGood:
      return "good";
    case RevocationStatus::kRevoked:
      return "revoked";
    case RevocationStatus::kStaleCrl:
      return "stale-crl";
    case RevocationStatus::kUnreachable:
      return "unreachable";
    case RevocationStatus::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::string to_string(RevocationStatus status) {
  return revocation_status_cstr(status);
}

bool is_self_signature(const x509::Certificate& cert) {
  return crypto::verify(cert.spki, cert.tbs_der, cert.signature);
}

// Memoizes the chain-walk sub-results that are pure functions of
// store-resident certificates: whether a CA's signature is its own
// (self-signature), whether a CA is a trusted root, and whether issuer X
// signed store-resident child Y. Keys are certificate addresses, which is
// sound only for certificates whose storage outlives the memo — the
// BatchVerifier contract. Leaf-level checks are never memoized: leaves are
// caller-owned transients and mostly unique, so an address key would be
// both unsafe and useless.
//
// Each entry is claimed once: the first thread to look a key up inserts a
// pending slot and computes it; any thread that finds the slot waits for
// the value. Every key is therefore computed exactly once, so the
// sig_checks and sig_cache_hits counters — not just the results — are
// identical at every thread count.
class VerifierMemo {
 public:
  template <typename Fn>
  bool self_signature(const x509::Certificate* cert, Fn&& compute) {
    return memoized(self_sig_, static_cast<const void*>(cert),
                    &sig_cache_hits, std::forward<Fn>(compute));
  }

  template <typename Fn>
  bool root_member(const x509::Certificate* cert, Fn&& compute) {
    return memoized(root_member_, static_cast<const void*>(cert), nullptr,
                    std::forward<Fn>(compute));
  }

  template <typename Fn>
  bool signature_pair(const x509::Certificate* issuer,
                      const x509::Certificate* child, Fn&& compute) {
    return memoized(sig_pair_, PtrPair{issuer, child}, &sig_cache_hits,
                    std::forward<Fn>(compute));
  }

  std::atomic<std::uint64_t> verified{0};
  std::atomic<std::uint64_t> sig_checks{0};
  std::atomic<std::uint64_t> sig_cache_hits{0};

 private:
  using PtrPair = std::pair<const void*, const void*>;
  struct PtrPairHash {
    std::size_t operator()(const PtrPair& key) const {
      const auto a = reinterpret_cast<std::uintptr_t>(key.first);
      const auto b = reinterpret_cast<std::uintptr_t>(key.second);
      std::size_t h = a * 0x9e3779b97f4a7c15ull;
      h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h;
    }
  };

  static constexpr std::size_t kShards = 16;

  template <typename MapT>
  struct Shards {
    struct Shard {
      std::mutex mutex;
      MapT map;
    };
    Shard shard[kShards];
  };

  // One memo entry: kPending until its claimant publishes the value.
  // unordered_map nodes never move, so waiters may hold a reference.
  struct Slot {
    static constexpr std::uint8_t kPending = 0;
    static constexpr std::uint8_t kFalse = 1;
    static constexpr std::uint8_t kTrue = 2;
    std::atomic<std::uint8_t> state{kPending};
  };

  // Returns the cached value for `key`. The first caller claims the slot
  // and computes outside the lock; later callers count a hit and wait for
  // the claimant's value. The compute callback must be pure in `key` and
  // must not throw.
  template <typename MapT, typename KeyT, typename Fn>
  static bool memoized(Shards<MapT>& shards, const KeyT& key,
                       std::atomic<std::uint64_t>* hits, Fn&& compute) {
    auto& shard =
        shards.shard[typename MapT::hasher{}(key) % kShards];
    Slot* slot = nullptr;
    bool claimed = false;
    {
      std::lock_guard lock(shard.mutex);
      const auto [it, inserted] = shard.map.try_emplace(key);
      slot = &it->second;
      claimed = inserted;
    }
    if (claimed) {
      const bool value = compute();
      slot->state.store(value ? Slot::kTrue : Slot::kFalse,
                        std::memory_order_release);
      slot->state.notify_all();
      return value;
    }
    if (hits != nullptr) hits->fetch_add(1, std::memory_order_relaxed);
    slot->state.wait(Slot::kPending, std::memory_order_acquire);
    return slot->state.load(std::memory_order_acquire) == Slot::kTrue;
  }

  Shards<std::unordered_map<const void*, Slot>> self_sig_;
  Shards<std::unordered_map<const void*, Slot>> root_member_;
  Shards<std::unordered_map<PtrPair, Slot, PtrPairHash>> sig_pair_;
};

Verifier::Verifier(const RootStore& roots, const IntermediatePool& intermediates,
                   VerifyOptions options)
    : roots_(roots), intermediates_(intermediates), options_(options) {}

ValidationResult Verifier::verify(
    const x509::Certificate& leaf,
    std::span<const x509::Certificate> presented) const {
  return verify_impl(leaf, presented, nullptr);
}

ValidationResult Verifier::verify_impl(
    const x509::Certificate& leaf,
    std::span<const x509::Certificate> presented, VerifierMemo* memo) const {
  ValidationResult out;
  if (memo != nullptr) memo->verified.fetch_add(1, std::memory_order_relaxed);

  if (!leaf.version_is_legal()) {
    out.reason = InvalidReason::kMalformedVersion;
    return out;
  }
  const auto time_ok = [&](const x509::Certificate& cert) -> InvalidReason {
    if (cert.validity.not_after < cert.validity.not_before) {
      return InvalidReason::kNeverValid;
    }
    if (options_.enforce_expiry &&
        (options_.at_time < cert.validity.not_before ||
         options_.at_time > cert.validity.not_after)) {
      return InvalidReason::kExpired;
    }
    return InvalidReason::kNone;
  };

  // One crypto::verify, memoized when both sides are store-resident (their
  // addresses are stable for the memo's lifetime). `resident` is tracked by
  // the walk below: candidates taken from the root store or intermediate
  // pool are resident; the leaf and presented certificates are not.
  const auto check_signature = [&](const x509::Certificate& issuer,
                                   bool issuer_resident,
                                   const x509::Certificate& child,
                                   bool child_resident) {
    const auto compute = [&] {
      if (memo != nullptr) {
        memo->sig_checks.fetch_add(1, std::memory_order_relaxed);
      }
      return crypto::verify(issuer.spki, child.tbs_der, child.signature);
    };
    if (memo != nullptr && issuer_resident && child_resident) {
      return memo->signature_pair(&issuer, &child, compute);
    }
    return compute();
  };
  const auto self_signature = [&](const x509::Certificate& cert,
                                  bool resident) {
    const auto compute = [&] {
      if (memo != nullptr) {
        memo->sig_checks.fetch_add(1, std::memory_order_relaxed);
      }
      return is_self_signature(cert);
    };
    if (memo != nullptr && resident) {
      return memo->self_signature(&cert, compute);
    }
    return compute();
  };
  const auto root_member = [&](const x509::Certificate& cert, bool resident) {
    const auto compute = [&] {
      return roots_.contains(cert);
    };
    if (memo != nullptr && resident) {
      return memo->root_member(&cert, compute);
    }
    return compute();
  };

  // Trusted root presented directly as the endpoint certificate.
  if (roots_.contains(leaf)) {
    out.valid = true;
    out.chain_length = 1;
    return out;
  }

  // Self-signed detection (error-19 analog + footnote-7 manual check).
  // Checked before the validity window so that a self-signed certificate
  // with a backwards validity period is classified self-signed, as openssl
  // error 19 fires before date checks — this keeps the paper's "other"
  // bucket tiny.
  if (self_signature(leaf, /*resident=*/false)) {
    out.reason = InvalidReason::kSelfSigned;
    return out;
  }

  // Leaf validity window (expiry ignored unless enforce_expiry).
  if (const InvalidReason r = time_ok(leaf); r != InvalidReason::kNone) {
    out.reason = r;
    return out;
  }

  // Walk up the chain. At each level, candidate issuers come from the root
  // store (reaching a root terminates the walk), then the presented chain,
  // then the intermediate pool (transvalid completion). The stores index by
  // encoded subject name, so the issuer key is computed once per level and
  // probes both stores without allocating candidate vectors.
  const x509::Certificate* current = &leaf;
  bool current_resident = false;
  bool used_pool = false;
  for (int depth = 1; depth < options_.max_chain_length; ++depth) {
    const SubjectKey issuer_key = subject_lookup_key(current->issuer);
    const x509::Certificate* next = nullptr;
    bool next_from_pool = false;
    bool next_resident = false;
    bool found_name_match = false;
    bool bad_signature_seen = false;

    const auto try_candidate = [&](const x509::Certificate& cand,
                                   bool from_pool, bool resident) {
      if (next) return;
      if (!(cand.subject == current->issuer)) return;
      found_name_match = true;
      if (!check_signature(cand, resident, *current, current_resident)) {
        bad_signature_seen = true;
        return;
      }
      if (time_ok(cand) != InvalidReason::kNone) return;
      next = &cand;
      next_from_pool = from_pool;
      next_resident = resident;
    };

    for (const std::size_t index : roots_.matches(issuer_key)) {
      try_candidate(roots_.at(index), false, /*resident=*/true);
      if (next) {
        if (options_.crl_store != nullptr &&
            options_.crl_store->is_revoked(leaf.issuer, leaf.serial)) {
          out.reason = InvalidReason::kRevoked;
          return out;
        }
        out.valid = true;
        out.chain_length = depth + 1;
        out.transvalid = used_pool;
        return out;
      }
    }
    for (const x509::Certificate& cand : presented) {
      try_candidate(cand, false, /*resident=*/false);
    }
    if (!next) {
      for (const std::size_t index : intermediates_.matches(issuer_key)) {
        try_candidate(intermediates_.at(index), true, /*resident=*/true);
      }
    }
    if (!next) {
      out.reason = (found_name_match && bad_signature_seen)
                       ? InvalidReason::kBadSignature
                       : InvalidReason::kUntrustedIssuer;
      return out;
    }
    if (self_signature(*next, next_resident) &&
        !root_member(*next, next_resident)) {
      // Chain roots at an untrusted self-signed certificate.
      out.reason = InvalidReason::kUntrustedIssuer;
      return out;
    }
    used_pool = used_pool || next_from_pool;
    current = next;
    current_resident = next_resident;
  }
  out.reason = InvalidReason::kUntrustedIssuer;  // chain too long / dangling
  return out;
}

BatchVerifier::BatchVerifier(const RootStore& roots,
                             const IntermediatePool& intermediates,
                             VerifyOptions options)
    : base_(roots, intermediates, options),
      memo_(std::make_unique<VerifierMemo>()) {}

BatchVerifier::~BatchVerifier() = default;

ValidationResult BatchVerifier::verify(
    const x509::Certificate& leaf,
    std::span<const x509::Certificate> presented) const {
  return base_.verify_impl(leaf, presented, memo_.get());
}

std::vector<ValidationResult> BatchVerifier::verify_all(
    std::span<const x509::Certificate> leaves, util::ThreadPool* pool) const {
  std::vector<ValidationResult> results(leaves.size());
  util::ThreadPool& workers =
      pool != nullptr ? *pool : util::ThreadPool::global();
  workers.parallel_for(leaves.size(), 32,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           results[i] = base_.verify_impl(leaves[i], {},
                                                          memo_.get());
                         }
                       });
  return results;
}

namespace {

// Everything a revocation pass learns about one issuer's CRL: computed
// once per issuer per check_revocation_all call and shared by every
// certificate naming that issuer. The entry is a pure function of
// (source, issuer_key, now, stores), so racing threads that compute it
// twice produce identical values and the emplace winner is
// indistinguishable from the loser.
struct CrlVerdict {
  bool reachable = false;  ///< the distribution point answered
  bool verified = false;   ///< parsed + issuer signature checked + sane dates
  bool stale = false;      ///< nextUpdate < now
  std::vector<std::string> revoked_hex;  ///< revoked serials, sorted hex
};

struct CrlMemo {
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::string,
                       std::shared_ptr<const CrlVerdict>> map;
  };
  Shard shard[kShards];

  Shard& shard_for(std::string_view issuer_key) {
    return shard[std::hash<std::string_view>{}(issuer_key) % kShards];
  }
};

}  // namespace

std::vector<RevocationStatus> BatchVerifier::check_revocation_all(
    std::span<const RevocationQuery> queries, const RevocationSource& source,
    util::UnixTime now, util::ThreadPool* pool) const {
  const RootStore& roots = base_.roots_;
  const IntermediatePool& intermediates = base_.intermediates_;

  // The memo is per call, not per verifier: `source` and `now` vary
  // between calls, and tying the cache to their values would just re-grow
  // it anyway. Within one batch every certificate of an issuer shares one
  // fetch + parse + signature check.
  CrlMemo memo;

  const auto compute_verdict = [&](std::string_view issuer_key) {
    auto verdict = std::make_shared<CrlVerdict>();
    util::Bytes der;
    if (!source.fetch_crl(issuer_key, der)) return verdict;
    verdict->reachable = true;
    std::optional<x509::Crl> crl = x509::parse_crl(der);
    if (!crl.has_value()) return verdict;
    // A CRL whose nextUpdate precedes thisUpdate is malformed, not merely
    // stale — same rule CrlStore::add enforces.
    if (crl->next_update.has_value() &&
        *crl->next_update < crl->this_update) {
      return verdict;
    }
    // The CRL is only trusted when a store-resident certificate with the
    // CRL's issuer name verifies its signature — the same stores the
    // chain walk trusts.
    const SubjectKey key = subject_lookup_key(crl->issuer);
    bool signed_by_issuer = false;
    const auto try_issuer = [&](const x509::Certificate& cand) {
      if (signed_by_issuer) return;
      if (!(cand.subject == crl->issuer)) return;
      if (crypto::verify(cand.spki, crl->tbs_der, crl->signature)) {
        signed_by_issuer = true;
      }
    };
    for (const std::size_t index : roots.matches(key)) {
      try_issuer(roots.at(index));
    }
    for (const std::size_t index : intermediates.matches(key)) {
      try_issuer(intermediates.at(index));
    }
    if (!signed_by_issuer) return verdict;
    verdict->verified = true;
    verdict->stale = crl->next_update.has_value() && *crl->next_update < now;
    verdict->revoked_hex.reserve(crl->revoked.size());
    for (const x509::RevokedEntry& entry : crl->revoked) {
      verdict->revoked_hex.push_back(entry.serial.to_hex());
    }
    std::sort(verdict->revoked_hex.begin(), verdict->revoked_hex.end());
    return verdict;
  };

  const auto crl_verdict = [&](const std::string& issuer_key) {
    CrlMemo::Shard& shard = memo.shard_for(issuer_key);
    {
      std::lock_guard lock(shard.mutex);
      if (const auto it = shard.map.find(issuer_key);
          it != shard.map.end()) {
        return it->second;
      }
    }
    // Computed outside the lock; a racing duplicate is pure and identical.
    std::shared_ptr<const CrlVerdict> verdict = compute_verdict(issuer_key);
    std::lock_guard lock(shard.mutex);
    return shard.map.emplace(issuer_key, std::move(verdict)).first->second;
  };

  const auto status_of = [&](const RevocationQuery& q) {
    if (q.has_ocsp) {
      switch (source.ocsp(q.issuer_key, q.serial_hex)) {
        case RevocationSource::OcspAnswer::kGood:
          return RevocationStatus::kGood;
        case RevocationSource::OcspAnswer::kRevoked:
          return RevocationStatus::kRevoked;
        case RevocationSource::OcspAnswer::kUnknown:
          return RevocationStatus::kUnknown;
        case RevocationSource::OcspAnswer::kUnreachable:
          // Fall back to the CRL when one is advertised; otherwise every
          // advertised endpoint failed.
          if (!q.has_crl) return RevocationStatus::kUnreachable;
          break;
      }
    }
    if (!q.has_crl) return RevocationStatus::kUnknown;
    const std::shared_ptr<const CrlVerdict> verdict =
        crl_verdict(q.issuer_key);
    if (!verdict->reachable) return RevocationStatus::kUnreachable;
    if (!verdict->verified) return RevocationStatus::kUnknown;
    // A revoked entry outranks staleness: even an expired CRL is positive
    // evidence of revocation.
    if (std::binary_search(verdict->revoked_hex.begin(),
                           verdict->revoked_hex.end(), q.serial_hex)) {
      return RevocationStatus::kRevoked;
    }
    if (verdict->stale) return RevocationStatus::kStaleCrl;
    return RevocationStatus::kGood;
  };

  std::vector<RevocationStatus> results(queries.size(),
                                        RevocationStatus::kUnknown);
  util::ThreadPool& workers =
      pool != nullptr ? *pool : util::ThreadPool::global();
  workers.parallel_for(queries.size(), 32,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           results[i] = status_of(queries[i]);
                         }
                       });
  return results;
}

BatchVerifyStats BatchVerifier::stats() const {
  BatchVerifyStats out;
  out.verified = memo_->verified.load(std::memory_order_relaxed);
  out.sig_checks = memo_->sig_checks.load(std::memory_order_relaxed);
  out.sig_cache_hits = memo_->sig_cache_hits.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sm::pki
