#include "linking/feature_index.h"

#include <string>
#include <unordered_map>

namespace sm::linking {

FeatureIndex::FeatureIndex(const scan::CertTable& certs,
                           const std::vector<bool>& include,
                           bool exclude_ip_common_names,
                           util::ThreadPool* pool)
    : cert_count_(certs.size()), per_feature_(kAllFeatures.size()) {
  if (pool == nullptr) pool = &util::ThreadPool::global();
  // One feature per chunk: features are independent, and interning is the
  // only string-touching pass left in the pipeline.
  pool->parallel_for(
      kAllFeatures.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t fi = begin; fi < end; ++fi) {
          const Feature feature = kAllFeatures[fi];
          PerFeature& out = per_feature_[index(feature)];
          out.column.assign(cert_count_, kNoValue);
          std::unordered_map<std::string, std::uint32_t> ids;
          std::vector<std::uint32_t> counts;
          for (scan::CertId id = 0; id < cert_count_; ++id) {
            if (!include[id]) continue;
            std::string value =
                feature_value(certs[id], feature, exclude_ip_common_names);
            if (value.empty()) continue;
            const auto [it, inserted] = ids.emplace(
                std::move(value), static_cast<std::uint32_t>(counts.size()));
            if (inserted) counts.push_back(0);
            out.column[id] = it->second;
            ++counts[it->second];
          }
          // CSR: offsets from counts, then fill members in cert order.
          out.offsets.assign(counts.size() + 1, 0);
          for (std::size_t v = 0; v < counts.size(); ++v) {
            out.offsets[v + 1] = out.offsets[v] + counts[v];
          }
          out.members.resize(out.offsets.back());
          std::vector<std::uint32_t> cursor(out.offsets.begin(),
                                            out.offsets.end() - 1);
          for (scan::CertId id = 0; id < cert_count_; ++id) {
            const std::uint32_t v = out.column[id];
            if (v != kNoValue) out.members[cursor[v]++] = id;
          }
        }
      });
}

}  // namespace sm::linking
