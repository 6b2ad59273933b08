// A trusted-root collection, standing in for the OS X 10.9.2 root store
// (222 roots) the paper validates against.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "x509/certificate.h"

namespace sm::pki {

/// The lookup key both certificate stores index subjects by (hex of the
/// subject's DER encoding). Building it allocates, so the verifier's chain
/// walk computes it once per level and probes both stores with the same
/// key instead of re-encoding the name per lookup.
using SubjectKey = std::string;

/// Encodes a subject name into the shared store-lookup key.
SubjectKey subject_lookup_key(const x509::Name& subject);

/// A set of trusted (root) certificates, indexed by subject name.
class RootStore {
 public:
  /// Adds a root. Duplicates (the same DER, hence the same fingerprint)
  /// are ignored.
  void add(x509::Certificate root);

  /// All roots whose subject encodes to the same name (several roots may
  /// share a subject across key rolls, as in real stores).
  std::vector<const x509::Certificate*> find_by_subject(
      const x509::Name& subject) const;

  /// Indices of the roots matching a precomputed subject key — the
  /// non-allocating lookup the chain walk uses. Resolve with at().
  std::span<const std::size_t> matches(const SubjectKey& key) const;

  /// The root at a matches() index.
  const x509::Certificate& at(std::size_t index) const {
    return roots_[index];
  }

  /// True when this exact certificate is trusted: its DER equals, byte for
  /// byte, that of a root sharing its subject. Equal DER is equal
  /// fingerprint, so no digest is computed.
  bool contains(const x509::Certificate& cert) const;

  std::size_t size() const { return roots_.size(); }

  /// Iterates all roots (stable order of insertion).
  const std::vector<x509::Certificate>& all() const { return roots_; }

 private:
  std::vector<x509::Certificate> roots_;
  std::map<std::string, std::vector<std::size_t>> by_subject_;
};

/// A pool of intermediate CA certificates collected across scans. The paper
/// validates every intermediate before leaves so that chains can be
/// completed even when a server presents an incomplete chain ("transvalid"
/// certificates). Same lookup interface as RootStore.
class IntermediatePool {
 public:
  /// Adds an intermediate. Duplicates (the same DER) are ignored.
  void add(x509::Certificate intermediate);

  /// Candidates whose subject matches.
  std::vector<const x509::Certificate*> find_by_subject(
      const x509::Name& subject) const;

  /// Indices of the intermediates matching a precomputed subject key.
  std::span<const std::size_t> matches(const SubjectKey& key) const;

  /// The intermediate at a matches() index.
  const x509::Certificate& at(std::size_t index) const {
    return pool_[index];
  }

  std::size_t size() const { return pool_.size(); }

 private:
  std::vector<x509::Certificate> pool_;
  std::map<std::string, std::vector<std::size_t>> by_subject_;
};

}  // namespace sm::pki
