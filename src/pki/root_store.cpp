#include "pki/root_store.h"

#include "util/hex.h"

namespace sm::pki {

SubjectKey subject_lookup_key(const x509::Name& subject) {
  return util::hex_encode(subject.encode());
}

void RootStore::add(x509::Certificate root) {
  std::vector<std::size_t>& same_subject =
      by_subject_[subject_lookup_key(root.subject)];
  for (const std::size_t index : same_subject) {
    if (roots_[index].der == root.der) return;
  }
  same_subject.push_back(roots_.size());
  roots_.push_back(std::move(root));
}

std::span<const std::size_t> RootStore::matches(const SubjectKey& key) const {
  const auto it = by_subject_.find(key);
  if (it == by_subject_.end()) return {};
  return it->second;
}

std::vector<const x509::Certificate*> RootStore::find_by_subject(
    const x509::Name& subject) const {
  std::vector<const x509::Certificate*> out;
  const std::span<const std::size_t> indices =
      matches(subject_lookup_key(subject));
  out.reserve(indices.size());
  for (const std::size_t index : indices) out.push_back(&roots_[index]);
  return out;
}

bool RootStore::contains(const x509::Certificate& cert) const {
  for (const std::size_t index : matches(subject_lookup_key(cert.subject))) {
    if (roots_[index].der == cert.der) return true;
  }
  return false;
}

void IntermediatePool::add(x509::Certificate intermediate) {
  std::vector<std::size_t>& same_subject =
      by_subject_[subject_lookup_key(intermediate.subject)];
  for (const std::size_t index : same_subject) {
    if (pool_[index].der == intermediate.der) return;
  }
  same_subject.push_back(pool_.size());
  pool_.push_back(std::move(intermediate));
}

std::span<const std::size_t> IntermediatePool::matches(
    const SubjectKey& key) const {
  const auto it = by_subject_.find(key);
  if (it == by_subject_.end()) return {};
  return it->second;
}

std::vector<const x509::Certificate*> IntermediatePool::find_by_subject(
    const x509::Name& subject) const {
  std::vector<const x509::Certificate*> out;
  const std::span<const std::size_t> indices =
      matches(subject_lookup_key(subject));
  out.reserve(indices.size());
  for (const std::size_t index : indices) out.push_back(&pool_[index]);
  return out;
}

}  // namespace sm::pki
