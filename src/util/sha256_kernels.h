// The SHA-256 block kernels behind util::Sha256, exposed for the tests that
// check the kernels agree. Not part of the hashing API: Sha256 picks the
// kernel itself, once, from CPUID.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sm::util::sha256_kernels {

/// Compresses `blocks` consecutive 64-byte blocks into the eight-word
/// state (FIPS 180-4 §6.2.2, state in the standard H0..H7 order).
using BlockFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t blocks);

/// The portable kernel: built on every target, and the fallback wherever
/// the SHA extensions are missing.
void scalar(std::uint32_t state[8], const std::uint8_t* data,
            std::size_t blocks);

#if defined(__x86_64__)
/// The x86 SHA-extensions kernel. Call it only when shani_supported().
void shani(std::uint32_t state[8], const std::uint8_t* data,
           std::size_t blocks);

/// CPUID reports the SHA extensions (leaf 7 EBX bit 29) together with the
/// SSSE3 and SSE4.1 instructions the kernel also uses.
bool shani_supported();
#endif

/// The kernel Sha256 uses on this CPU, chosen on first call.
BlockFn active();

}  // namespace sm::util::sha256_kernels
