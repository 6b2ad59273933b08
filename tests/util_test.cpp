// Unit tests for sm::util — hashes against published vectors, hex codec,
// civil-date conversions, PRNG behaviour, and statistics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string_view>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/datetime.h"
#include "util/hex.h"
#include "util/md5.h"
#include "util/prng.h"
#include "util/sha1.h"
#include "util/sha256.h"
#include "util/sha256_kernels.h"
#include "util/stats.h"

namespace sm::util {
namespace {

// --- hex ---------------------------------------------------------------

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(hex_encode(data), "0001abff");
  EXPECT_EQ(hex_decode("0001abff"), data);
  EXPECT_EQ(hex_decode("0001ABFF"), data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(hex_encode({}), "");
  EXPECT_EQ(hex_decode(""), Bytes{});
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(hex_decode("abc").has_value()); }

TEST(Hex, RejectsNonHex) { EXPECT_FALSE(hex_decode("zz").has_value()); }

// --- SHA-256 (FIPS 180-4 vectors) ---------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_encode(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_encode(Sha256::digest(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_encode(Sha256::digest(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("The quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(h.finish(), Sha256::digest(data));
}

// --- SHA-256 block kernels ---------------------------------------------

constexpr std::array<std::uint32_t, 8> kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// SHA-256 with padding built independently of Sha256::finish() and every
// block compressed by the scalar kernel.
Bytes scalar_reference_sha256(BytesView message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bit_len = std::uint64_t{message.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bit_len >> shift));
  }
  std::array<std::uint32_t, 8> state = kSha256Iv;
  sha256_kernels::scalar(state.data(), padded.data(), padded.size() / 64);
  Bytes out;
  for (const std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  return out;
}

TEST(Sha256Kernels, ScalarReferenceMatchesFipsVector) {
  EXPECT_EQ(hex_encode(scalar_reference_sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Kernels, ActiveKernelFollowsCpuid) {
#if defined(__x86_64__)
  EXPECT_EQ(sha256_kernels::active(), sha256_kernels::shani_supported()
                                          ? &sha256_kernels::shani
                                          : &sha256_kernels::scalar);
#else
  EXPECT_EQ(sha256_kernels::active(), &sha256_kernels::scalar);
#endif
}

TEST(Sha256Kernels, ShaNiMatchesScalarOnRandomStatesAndBlocks) {
#if defined(__x86_64__)
  if (!sha256_kernels::shani_supported()) {
    GTEST_SKIP() << "CPUID reports no SHA extensions (or no SSSE3/SSE4.1); "
                    "only the scalar kernel can run here";
  }
  Rng rng(0x5a256);
  for (int trial = 0; trial < 2000; ++trial) {
    // 1..4 consecutive blocks, at an odd offset so the loads are unaligned.
    const std::size_t blocks = 1 + rng.below(4);
    Bytes data(1 + 64 * blocks);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    std::array<std::uint32_t, 8> scalar_state;
    for (auto& word : scalar_state) word = static_cast<std::uint32_t>(rng());
    std::array<std::uint32_t, 8> shani_state = scalar_state;
    sha256_kernels::scalar(scalar_state.data(), data.data() + 1, blocks);
    sha256_kernels::shani(shani_state.data(), data.data() + 1, blocks);
    ASSERT_EQ(shani_state, scalar_state) << "trial " << trial;
  }
#else
  GTEST_SKIP() << "the SHA-extensions kernel exists only on x86-64 builds";
#endif
}

TEST(Sha256Kernels, EveryLengthAndSplitMatchesScalarReference) {
  // Lengths 0..1100 cover each padding edge (55, 56, 63, 64 bytes mod 64)
  // many times over; each message is also fed in three pieces cut at
  // several points, so partial-buffer updates meet every edge too.
  Rng rng(0x256);
  Bytes message(1100);
  for (auto& b : message) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t n = 0; n <= message.size(); ++n) {
    const BytesView whole(message.data(), n);
    const Bytes expected = scalar_reference_sha256(whole);
    ASSERT_EQ(Sha256::digest(whole), expected) << "length " << n;
    const std::size_t cuts[] = {0, 1, 55, 56, 63, 64, n / 3, n / 2, n - 1};
    for (const std::size_t first_cut : cuts) {
      for (const std::size_t second_cut : cuts) {
        const std::size_t first = std::min(first_cut, n);
        const std::size_t second = std::clamp(second_cut, first, n);
        Sha256 h;
        h.update(whole.subspan(0, first))
            .update(whole.subspan(first, second - first))
            .update(whole.subspan(second));
        ASSERT_EQ(h.finish(), expected)
            << "length " << n << " cut at " << first << "/" << second;
      }
    }
  }
}

// --- SHA-1 ---------------------------------------------------------------

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex_encode(Sha1::digest({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex_encode(Sha1::digest(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex_encode(Sha1::digest(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// --- MD5 (RFC 1321 vectors) ----------------------------------------------

TEST(Md5, EmptyString) {
  EXPECT_EQ(hex_encode(Md5::digest({})),
            "d41d8cd98f00b204e9800998ecf8427e");
}

TEST(Md5, Abc) {
  EXPECT_EQ(hex_encode(Md5::digest(to_bytes("abc"))),
            "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, LongerVector) {
  EXPECT_EQ(hex_encode(Md5::digest(to_bytes(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456"
                "789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

// --- datetime -------------------------------------------------------------

TEST(DateTime, EpochIsZero) { EXPECT_EQ(make_date(1970, 1, 1), 0); }

TEST(DateTime, KnownDate) {
  // 2012-06-10 (first UMich scan in the paper's dataset).
  EXPECT_EQ(make_date(2012, 6, 10), 1339286400);
}

TEST(DateTime, RoundTripThroughCivil) {
  const UnixTime t = make_date(2014, 3, 30) + 12 * 3600 + 34 * 60 + 56;
  const CivilDateTime c = from_unix(t);
  EXPECT_EQ(c.year, 2014);
  EXPECT_EQ(c.month, 3u);
  EXPECT_EQ(c.day, 30u);
  EXPECT_EQ(c.hour, 12u);
  EXPECT_EQ(c.minute, 34u);
  EXPECT_EQ(c.second, 56u);
  EXPECT_EQ(to_unix(c), t);
}

TEST(DateTime, NegativeTimes) {
  const CivilDateTime c = from_unix(-1);
  EXPECT_EQ(c.year, 1969);
  EXPECT_EQ(c.month, 12u);
  EXPECT_EQ(c.day, 31u);
  EXPECT_EQ(c.second, 59u);
}

TEST(DateTime, FarFutureYear3000) {
  // The paper sees Not After dates in year 3000+; conversions must hold.
  const UnixTime t = make_date(3000, 1, 1);
  EXPECT_EQ(from_unix(t).year, 3000);
  EXPECT_GT(t, make_date(2049, 12, 31));
}

TEST(DateTime, LeapYearHandling) {
  EXPECT_EQ(make_date(2012, 3, 1) - make_date(2012, 2, 28),
            2 * kSecondsPerDay);
  EXPECT_EQ(make_date(2013, 3, 1) - make_date(2013, 2, 28),
            1 * kSecondsPerDay);
  EXPECT_EQ(make_date(2000, 3, 1) - make_date(2000, 2, 28),
            2 * kSecondsPerDay);  // 2000 was a leap year (div by 400)
  EXPECT_EQ(make_date(2100, 3, 1) - make_date(2100, 2, 28),
            1 * kSecondsPerDay);  // 2100 is not
}

TEST(DateTime, FormatAndParseRoundTrip) {
  const UnixTime t = make_date(2013, 11, 5) + 7 * 3600 + 8 * 60 + 9;
  EXPECT_EQ(format_datetime(t), "2013-11-05 07:08:09");
  EXPECT_EQ(parse_datetime("2013-11-05 07:08:09"), t);
  EXPECT_EQ(parse_datetime("2013-11-05"), make_date(2013, 11, 5));
}

TEST(DateTime, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_datetime("not a date").has_value());
  EXPECT_FALSE(parse_datetime("2013-13-05").has_value());
  EXPECT_FALSE(parse_datetime("2013-02-30").has_value());
  EXPECT_FALSE(parse_datetime("2013-11-05 25:00:00").has_value());
}

TEST(DateTime, UtcTimeWindow) {
  EXPECT_TRUE(fits_utctime(make_date(1950, 1, 1)));
  EXPECT_TRUE(fits_utctime(make_date(2049, 12, 31)));
  EXPECT_FALSE(fits_utctime(make_date(2050, 1, 1)));
  EXPECT_FALSE(fits_utctime(make_date(1949, 12, 31)));
}

// Property sweep: day arithmetic round-trips across four centuries.
class CivilRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CivilRoundTrip, DaysRoundTrip) {
  const int year = GetParam();
  for (unsigned month = 1; month <= 12; ++month) {
    const std::int64_t days = days_from_civil(year, month, 15);
    const CivilDateTime c = civil_from_days(days);
    EXPECT_EQ(c.year, year);
    EXPECT_EQ(c.month, month);
    EXPECT_EQ(c.day, 15u);
  }
}

INSTANTIATE_TEST_SUITE_P(Years, CivilRoundTrip,
                         ::testing::Values(1900, 1970, 1999, 2000, 2012, 2038,
                                           2100, 2400, 3000, 4750, 9999));

// --- prng -------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(99);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Fnv1a, KnownValues) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a("vendor:lancom"), fnv1a("vendor:avm"));
}

// --- stats ---------------------------------------------------------------

TEST(EmpiricalCdf, BasicQueries) {
  const EmpiricalCdf cdf({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(3), 0.6);
  EXPECT_DOUBLE_EQ(cdf.at(100), 1.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3);
  EXPECT_DOUBLE_EQ(cdf.min(), 1);
  EXPECT_DOUBLE_EQ(cdf.max(), 5);
  EXPECT_DOUBLE_EQ(cdf.mean(), 3);
}

TEST(EmpiricalCdf, PercentileNearestRank) {
  const EmpiricalCdf cdf({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  EXPECT_DOUBLE_EQ(cdf.percentile(0.0), 10);
  EXPECT_DOUBLE_EQ(cdf.percentile(1.0), 100);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.9), 90);
}

TEST(EmpiricalCdf, EmptyBehaviour) {
  const EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(5), 0.0);
  EXPECT_THROW(cdf.percentile(0.5), std::logic_error);
}

TEST(EmpiricalCdf, CurveEndsAtOne) {
  const EmpiricalCdf cdf({5, 1, 3, 2, 4});
  const auto pts = cdf.curve(10);
  ASSERT_FALSE(pts.empty());
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().first, 5.0);
}

TEST(EmpiricalCdf, CurveClosesOnYWithRepeatedSamples) {
  // Regression: {1, 1} at max_points 1 subsamples to a single point
  // (1, 0.5); the old x-based closing guard saw x == max and skipped the
  // closing point, leaving a CDF that never reached 1.
  const EmpiricalCdf cdf({1, 1});
  const auto pts = cdf.curve(1);
  ASSERT_FALSE(pts.empty());
  EXPECT_DOUBLE_EQ(pts.back().first, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(EmpiricalCdf, CurveMonotoneAndClosedUnderSubsampling) {
  const EmpiricalCdf cdf({1, 1, 2, 2, 2, 3, 7, 7, 7, 7, 9});
  for (const std::size_t max_points : {1u, 2u, 3u, 5u, 100u}) {
    const auto pts = cdf.curve(max_points);
    ASSERT_FALSE(pts.empty());
    EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
    EXPECT_DOUBLE_EQ(pts.back().first, 9.0);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      EXPECT_GE(pts[i].first, pts[i - 1].first);
      EXPECT_GE(pts[i].second, pts[i - 1].second);
    }
  }
}

TEST(EmpiricalCdf, CurveZeroPointsIsEmpty) {
  const EmpiricalCdf cdf({1, 2, 3});
  EXPECT_TRUE(cdf.curve(0).empty());
}

TEST(Counter, TopAndTotals) {
  Counter c;
  c.add("godaddy", 5);
  c.add("rapidssl", 3);
  c.add("empty");
  EXPECT_EQ(c.total(), 9u);
  EXPECT_EQ(c.distinct(), 3u);
  const auto top = c.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "godaddy");
  EXPECT_EQ(top[1].first, "rapidssl");
  EXPECT_EQ(c.count("empty"), 1u);
  EXPECT_EQ(c.count("missing"), 0u);
}

TEST(Counter, KeysToCover) {
  Counter c;
  c.add("a", 50);
  c.add("b", 30);
  c.add("c", 10);
  c.add("d", 10);
  EXPECT_EQ(c.keys_to_cover(0.5), 1u);
  EXPECT_EQ(c.keys_to_cover(0.8), 2u);
  EXPECT_EQ(c.keys_to_cover(1.0), 4u);
}

TEST(CoverageCurve, UniformKeysAreLinear) {
  const auto pts = coverage_curve({1, 1, 1, 1}, 100);
  for (const auto& [x, y] : pts) EXPECT_DOUBLE_EQ(x, y);
}

TEST(CoverageCurve, SharedKeysBendAboveDiagonal) {
  // One key covering most items: y must exceed x early on.
  const auto pts = coverage_curve({97, 1, 1, 1}, 100);
  ASSERT_FALSE(pts.empty());
  EXPECT_DOUBLE_EQ(pts.front().first, 0.25);
  EXPECT_DOUBLE_EQ(pts.front().second, 0.97);
}

TEST(CoverageCurve, ZeroMaxPointsIsEmpty) {
  // Regression: max_points == 0 divided by zero in the step computation.
  EXPECT_TRUE(coverage_curve({3, 2, 1}, 0).empty());
  EXPECT_TRUE(coverage_curve({}, 0).empty());
}

TEST(Percent, Formatting) {
  EXPECT_EQ(percent(0.879), "87.9%");
  EXPECT_EQ(percent(0.0), "0.0%");
  EXPECT_EQ(percent(1.0), "100.0%");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "count"});
  t.add_row({"lancom", "4691873"});
  t.add_row({"x", "1"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("lancom  4691873"), std::string::npos);
}

TEST(TextTable, EmptyHeaderTableRendersEmpty) {
  // Regression: zero headers made the rule length underflow to SIZE_MAX
  // and str() tried to build a multi-exabyte string of dashes.
  TextTable t({});
  EXPECT_EQ(t.str(), "");
}

TEST(TextTable, OverWideRowThrows) {
  TextTable t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
  // Narrow rows still pad to the header width.
  TextTable u({"a", "b"});
  u.add_row({"x"});
  EXPECT_NE(u.str().find("x"), std::string::npos);
}

TEST(Crc32, StandardVectors) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0x00000000u);
  EXPECT_EQ(crc32(std::string_view("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(std::string_view(
                "The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data =
      "a longer buffer whose crc is computed in pieces of varying size to "
      "exercise the sliced fast path and the byte tail together.";
  const std::uint32_t whole = crc32(data.data(), data.size());
  // Every split point must agree with the one-shot value, including splits
  // that leave the second half unaligned for the 8-byte fold.
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t c = crc32(data.data(), split);
    c = crc32(data.data() + split, data.size() - split, c);
    EXPECT_EQ(c, whole) << "split=" << split;
  }
}

TEST(Crc32, EveryLengthAndOffset) {
  // Cross-check the sliced implementation against a reference bytewise
  // loop for every small length at every alignment offset.
  std::array<unsigned char, 96> data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(31 * i + 7);
  }
  const auto reference = [](const unsigned char* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len + offset <= data.size(); ++len) {
      EXPECT_EQ(crc32(data.data() + offset, len),
                reference(data.data() + offset, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace sm::util
