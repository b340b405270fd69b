// Property tests for the stream-free formatter (common/text.h) every reply,
// cache key, canonical scenario and trace export is printed with: its bytes
// must be the bytes the iostreams and printf calls it replaced printed, so
// transcripts, cache keys, canonical scenario text and trace files stay
// byte-identical.
//
//  - append_g(17) == `ostream << setprecision(17)` on 1M random 64-bit
//    patterns (every class: normals, subnormals, infinities, NaNs of both
//    signs), on uniform doubles in [0, 400) (the Gbps range replies print),
//    on short binary fractions whose 17th digit is a rounding tie, and on
//    hand-picked edges: +-0, +-inf, signed quiet NaN, denorm_min,
//    max, lowest, and the neighbourhoods of 1e16 and 1e17 where %.17g
//    switches between fixed and exponent notation;
//  - append_g at precisions 6, 9 and 17 (the tracer exports' `%.6g` and
//    `%.9g`, and the round-trip form) == `snprintf("%.*g")` on random bit
//    patterns, on rounding ties at each precision and around the powers of
//    ten where `%g` switches between fixed and exponent notation;
//  - append_hex16 keeps its zero padding, append_uint/append_int match
//    `ostream <<` at the integer limits.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/text.h"
#include "gtest/gtest.h"

namespace hpn::text {
namespace {

/// Reusable `setprecision(17)` stream: the reference printer.
class StreamG17 {
 public:
  StreamG17() { os_ << std::setprecision(17); }
  std::string operator()(double v) {
    os_.str(std::string{});
    os_ << v;
    return os_.str();
  }

 private:
  std::ostringstream os_;
};

std::string g17(double v) {
  std::string out;
  append_g(out, v, 17);
  return out;
}

std::string g(double v, int precision) {
  std::string out;
  append_g(out, v, precision);
  return out;
}

/// The reference printer of append_g: printf's `%.*g`.
std::string printf_g(double v, int precision) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return std::string(buf, static_cast<std::size_t>(n));
}

TEST(TextFormat, G17MatchesStreamOnRandomBitPatterns) {
  StreamG17 stream;
  std::mt19937_64 rng{0x5EED0017};
  int mismatches = 0;
  constexpr int kSamples = 1'000'000;
  for (int i = 0; i < kSamples && mismatches < 5; ++i) {
    const double v = std::bit_cast<double>(rng());
    const std::string want = stream(v);
    const std::string got = g17(v);
    if (got != want) {
      ++mismatches;
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << ": got '"
                    << got << "', stream '" << want << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(TextFormat, G17MatchesStreamOnGbpsRange) {
  StreamG17 stream;
  std::mt19937_64 rng{400};
  std::uniform_real_distribution<double> gbps{0.0, 400.0};
  for (int i = 0; i < 200'000; ++i) {
    const double v = gbps(rng);
    ASSERT_EQ(g17(v), stream(v)) << "value index " << i;
  }
}

TEST(TextFormat, G17MatchesStreamOnRoundingTies) {
  // m * 2^-k has a short binary fraction, so its 17-digit decimal rounding
  // often lands exactly halfway; both printers must break ties to even.
  StreamG17 stream;
  std::mt19937_64 rng{17};
  for (int k = 1; k <= 70; ++k) {
    for (int i = 0; i < 2000; ++i) {
      const double v = std::ldexp(static_cast<double>(rng() >> 11), -k);
      ASSERT_EQ(g17(v), stream(v)) << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    }
  }
  // 1 + 2^-17 = 1.00000762939453125 exactly: the 17th digit is a tie.
  EXPECT_EQ(g17(1.0 + std::ldexp(1.0, -17)), "1.0000076293945312");
}

TEST(TextFormat, G17MatchesStreamOnEdges) {
  using L = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                L::infinity(),
                                -L::infinity(),
                                L::quiet_NaN(),
                                std::copysign(L::quiet_NaN(), -1.0),
                                L::denorm_min(),
                                -L::denorm_min(),
                                L::min(),
                                L::max(),
                                L::lowest(),
                                L::epsilon(),
                                1.0,
                                0.1,
                                1.0 / 3.0,
                                9007199254740992.0,
                                9007199254740993.0,
                                123456789012345678.0};
  for (const double anchor : {1e15, 1e16, 1e17, 1e18, -1e16, -1e17, 1e-5, 1e-4}) {
    double v = anchor;
    for (int k = 0; k < 1000; ++k) v = std::nextafter(v, -L::infinity());
    for (int k = 0; k < 2000; ++k) {
      values.push_back(v);
      v = std::nextafter(v, L::infinity());
    }
  }
  StreamG17 stream;
  for (const double v : values) {
    EXPECT_EQ(g17(v), stream(v)) << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
  }
  EXPECT_EQ(g17(-0.0), "-0");
  EXPECT_EQ(g17(-L::infinity()), "-inf");
  EXPECT_EQ(g17(1e17), "1e+17");
  EXPECT_EQ(g17(0.1), "0.10000000000000001");
}

TEST(TextFormat, GMatchesPrintfAtTracePrecisions) {
  using L = std::numeric_limits<double>;
  std::mt19937_64 rng{0x5EED0609};
  for (const int p : {6, 9, 17}) {
    std::vector<double> values = {0.0, -0.0, L::infinity(), -L::infinity(), L::quiet_NaN(),
                                  std::copysign(L::quiet_NaN(), -1.0), L::denorm_min(),
                                  -L::denorm_min(), L::min(), L::max(), L::lowest()};
    for (int i = 0; i < 300'000; ++i) values.push_back(std::bit_cast<double>(rng()));
    // Short binary fractions: their p-digit rounding often lands exactly
    // halfway, where both printers must round to even.
    for (int k = 1; k <= 60; ++k) {
      for (int i = 0; i < 500; ++i) {
        values.push_back(std::ldexp(static_cast<double>(rng() >> (11 + rng() % 53)), -k));
      }
    }
    // Neighbourhoods of the values that round up to the next power of ten
    // (9.99999|5 at p = 6), where `%g` can switch notation.
    for (int e = -6; e <= 20; ++e) {
      const double edge = (1.0 - 0.5 * std::pow(10.0, -p)) * std::pow(10.0, e);
      for (const double anchor : {edge, -edge, std::pow(10.0, e)}) {
        double v = anchor;
        for (int k = 0; k < 50; ++k) v = std::nextafter(v, -L::infinity());
        for (int k = 0; k < 100; ++k) {
          values.push_back(v);
          v = std::nextafter(v, L::infinity());
        }
      }
    }
    int mismatches = 0;
    for (const double v : values) {
      const std::string want = printf_g(v, p);
      const std::string got = g(v, p);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << "%." << p << "g of bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(v) << ": got '" << got << "', printf '"
                      << want << "'";
      }
    }
    EXPECT_EQ(mismatches, 0) << "precision " << p;
  }
  EXPECT_EQ(g(999999.5, 6), "1e+06");
  EXPECT_EQ(g(0.0001, 6), "0.0001");
  EXPECT_EQ(g(1.0 / 3.0, 9), "0.333333333");
}

TEST(TextFormat, Hex16KeepsItsZeroPadding) {
  const auto hex = [](std::uint64_t v) {
    std::string out;
    append_hex16(out, v);
    return out;
  };
  EXPECT_EQ(hex(0), "0000000000000000");
  EXPECT_EQ(hex(0xab), "00000000000000ab");
  EXPECT_EQ(hex(0xa9eb3a60d4937e38ULL), "a9eb3a60d4937e38");
  EXPECT_EQ(hex(~std::uint64_t{0}), "ffffffffffffffff");
  std::mt19937_64 rng{16};
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 64);
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    ASSERT_EQ(hex(v), os.str());
  }
}

TEST(TextFormat, IntegersMatchStream) {
  using I = std::numeric_limits<std::int64_t>;
  for (const std::int64_t v : {I::min(), I::min() + 1, std::int64_t{-1}, std::int64_t{0},
                               std::int64_t{7}, I::max()}) {
    std::string out;
    append_int(out, v);
    EXPECT_EQ(out, std::to_string(v));
  }
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{4294967295u},
                                std::numeric_limits<std::uint64_t>::max()}) {
    std::string out;
    append_uint(out, v);
    std::ostringstream os;
    os << v;
    EXPECT_EQ(out, os.str());
  }
  std::string out = "x=";
  append_uint(out, 42);
  append_g(out, 2.5, 17);
  EXPECT_EQ(out, "x=422.5") << "appends must not clobber what is already there";
}

}  // namespace
}  // namespace hpn::text
