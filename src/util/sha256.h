// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for certificate fingerprints, public-key fingerprints, and as the
// digest inside both the real RSA signature scheme and the simulated
// signature scheme (see crypto/).
//
// Blocks are compressed by one of two kernels (util/sha256_kernels.h),
// chosen once per process from CPUID alone: the x86 SHA-extensions kernel
// when the CPU has SHA, SSSE3 and SSE4.1, otherwise the portable scalar
// kernel, which is also the only one on non-x86 builds. Both produce the
// same digests; nothing else selects between them.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sm::util {

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update(part1).update(part2);
///   Bytes digest = h.finish();   // 32 bytes
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;

  Sha256();

  /// Absorbs more input. May be called repeatedly before finish().
  Sha256& update(BytesView data);

  /// Completes the hash and returns the 32-byte digest. The hasher must not
  /// be reused after finish().
  Bytes finish();

  /// One-shot convenience: SHA-256 of a single buffer.
  static Bytes digest(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace sm::util
