// The number encoders of obs/json.hpp must write exactly the bytes printf
// writes, so switching an exporter to them cannot change a single output
// file.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

namespace leosim::obs {
namespace {

std::string PrintfG17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string G17(double value) {
  std::string out = "x";  // appends, never overwrites
  AppendG17(&out, value);
  return out.substr(1);
}

TEST(NumberFormatTest, G17MatchesPrintfOnEdgeCases) {
  using limits = std::numeric_limits<double>;
  const double cases[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 2.0 / 3.0, 100.0, 123456789.0,
      limits::min(), -limits::min(), limits::denorm_min(),
      -limits::denorm_min(), limits::min() / 3.0, limits::max(),
      -limits::max(), limits::epsilon(),
      // Around the switch from fixed to exponent notation at 17 digits.
      1e16, 1e16 - 1.0, 1e16 + 2.0, 9999999999999998.0, 1e17, 1e17 - 16.0,
      1e17 + 16.0, 99999999999999984.0, 1e-4, 1e-5, 0.00012345678901234567,
      // Integers, exact and beyond 2^53.
      42.0, -7.0, 9007199254740992.0, 9007199254740993.0, 1e21, 1e22, 1e300,
      1e-300, 6371.0088, 299792.458, 0.1 + 0.2,
      limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
      -limits::quiet_NaN()};
  for (const double value : cases) {
    EXPECT_EQ(G17(value), PrintfG17(value)) << std::bit_cast<uint64_t>(value);
  }
}

TEST(NumberFormatTest, G17MatchesPrintfOnRandomBitPatterns) {
  // Raw bit patterns cover every exponent, subnormals and NaN payloads
  // alike, unlike values drawn from a distribution.
  std::mt19937_64 rng(20201104);
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double value = std::bit_cast<double>(rng());
    if (G17(value) != PrintfG17(value) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(value) << ": "
                    << G17(value) << " vs " << PrintfG17(value);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumberFormatTest, IntegersMatchPrintf) {
  const int64_t signed_cases[] = {0, 1, -1, 9, 10, -10, 2147483647,
                                  -2147483648LL,
                                  std::numeric_limits<int64_t>::max(),
                                  std::numeric_limits<int64_t>::min()};
  for (const int64_t value : signed_cases) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    std::string out;
    AppendInt(&out, value);
    EXPECT_EQ(out, buf);
  }
  const uint64_t unsigned_cases[] = {0, 1, 10, 4294967296ULL,
                                     std::numeric_limits<uint64_t>::max()};
  for (const uint64_t value : unsigned_cases) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    std::string out;
    AppendUint(&out, value);
    EXPECT_EQ(out, buf);
  }
}

}  // namespace
}  // namespace leosim::obs
