#include "util/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/sha256_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sm::util {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

namespace sha256_kernels {

void scalar(std::uint32_t state[8], const std::uint8_t* data,
            std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// Each sha256rnds2 performs two rounds on the state split as ABEF/CDGH; a
// group of four message words feeds two of them. Words 16..63 come from
// sha256msg1 (W[t-16] + s0(W[t-15])), the W[t-7] term, and sha256msg2
// (+ s1(W[t-2])), kept in a ring of the last four groups.
__attribute__((target("sha,sse4.1,ssse3"))) void shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  // Reverses the bytes of each 32-bit word (the message is big-endian).
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* words = reinterpret_cast<const __m128i*>(state);
  const __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1b);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& group = w[g & 3];
      if (g < 4) {
        group = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data) + g),
            byte_swap);
      } else {
        const __m128i& prev = w[(g + 3) & 3];
        const __m128i t7 = _mm_alignr_epi8(prev, w[(g + 2) & 3], 4);
        group = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(group, w[(g + 1) & 3]), t7),
            prev);
      }
      __m128i msg = _mm_add_epi32(
          group, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                     kRoundConstants.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  auto* out = reinterpret_cast<__m128i*>(state);
  _mm_storeu_si128(out, _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(out + 1, _mm_alignr_epi8(dchg, feba, 8));
}

bool shani_supported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & bit_SHA) != 0;
}

#endif

BlockFn active() {
#if defined(__x86_64__)
  static const BlockFn chosen = shani_supported() ? shani : scalar;
  return chosen;
#else
  return scalar;
#endif
}

}  // namespace sha256_kernels

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256& Sha256::update(BytesView data) {
  const sha256_kernels::BlockFn compress = sha256_kernels::active();
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < 64) return *this;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  buffer_len_ = data.size() - offset;
  if (buffer_len_ > 0) {
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
  return *this;
}

Bytes Sha256::finish() {
  // One tail: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit
  // length. The update below also adds to total_len_, which is no longer
  // read.
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t tail[72] = {0x80};
  const std::size_t pad = (buffer_len_ < 56 ? 56 : 120) - buffer_len_;
  store_be32(tail + pad, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(tail + pad + 4, static_cast<std::uint32_t>(bit_len));
  update(BytesView(tail, pad + 8));
  Bytes out(kDigestSize);
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Bytes Sha256::digest(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace sm::util
