#include "orbit/tle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>

#include "geo/coordinates.hpp"
#include "orbit/elements.hpp"

namespace leosim::orbit {
namespace {

// The canonical ISS element set used in the SGP4 literature (Vallado et
// al.); both lines carry checksum 7.
constexpr const char* kIssLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
constexpr const char* kIssLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

// Builds a valid near-circular TLE pair with correct checksums.
std::pair<std::string, std::string> SyntheticTle(int catalog, double incl,
                                                 double raan, double mean_anomaly,
                                                 double mean_motion) {
  char line1[70];
  char line2[70];
  std::snprintf(line1, sizeof(line1),
                "1 %05dU 20001A   20001.00000000  .00000000  00000-0  00000-0 0  999",
                catalog);
  std::snprintf(line2, sizeof(line2),
                "2 %05d %8.4f %8.4f 0001000 000.0000 %8.4f %11.8f    1",
                catalog, incl, raan, mean_anomaly, mean_motion);
  std::string l1(line1);
  std::string l2(line2);
  l1 += static_cast<char>('0' + TleChecksum(l1));
  l2 += static_cast<char>('0' + TleChecksum(l2));
  return {l1, l2};
}

TEST(TleTest, ChecksumOfRealLines) {
  EXPECT_EQ(TleChecksum(kIssLine1), 7);
  EXPECT_EQ(TleChecksum(kIssLine2), 7);
}

TEST(TleTest, ParsesIssElements) {
  const Tle tle = ParseTle(kIssLine1, kIssLine2, "ISS (ZARYA)");
  EXPECT_EQ(tle.name, "ISS (ZARYA)");
  EXPECT_EQ(tle.catalog_number, 25544);
  EXPECT_EQ(tle.epoch_year, 2008);
  EXPECT_NEAR(tle.epoch_day, 264.51782528, 1e-8);
  EXPECT_NEAR(tle.inclination_deg, 51.6416, 1e-4);
  EXPECT_NEAR(tle.raan_deg, 247.4627, 1e-4);
  EXPECT_NEAR(tle.eccentricity, 0.0006703, 1e-7);
  EXPECT_NEAR(tle.arg_perigee_deg, 130.5360, 1e-4);
  EXPECT_NEAR(tle.mean_anomaly_deg, 325.0288, 1e-4);
  EXPECT_NEAR(tle.mean_motion_rev_per_day, 15.72125391, 1e-8);
}

TEST(TleTest, IssAltitudePlausible) {
  const Tle tle = ParseTle(kIssLine1, kIssLine2);
  // ISS orbits at roughly 340-360 km (this epoch was a low phase).
  EXPECT_GT(tle.AltitudeKm(), 300.0);
  EXPECT_LT(tle.AltitudeKm(), 400.0);
}

TEST(TleTest, CircularElementsCombineAnomalyAndPerigee) {
  const Tle tle = ParseTle(kIssLine1, kIssLine2);
  const CircularOrbitElements e = tle.ToCircularElements();
  EXPECT_NEAR(e.arg_latitude_epoch_deg,
              std::fmod(130.5360 + 325.0288, 360.0), 1e-6);
  EXPECT_NEAR(e.inclination_deg, 51.6416, 1e-4);
}

TEST(TleTest, RejectsCorruptedChecksum) {
  std::string bad = kIssLine1;
  bad[68] = '3';
  EXPECT_THROW(ParseTle(bad, kIssLine2), std::invalid_argument);
}

TEST(TleTest, RejectsWrongTagAndShortLines) {
  EXPECT_THROW(ParseTle(kIssLine2, kIssLine2), std::invalid_argument);
  EXPECT_THROW(ParseTle("1 25544U", kIssLine2), std::invalid_argument);
}

TEST(TleTest, RejectsEccentricOrbit) {
  // A Molniya-like eccentricity (0.74) must be refused by the circular model.
  std::string line2 = kIssLine2;
  line2.replace(26, 7, "7400000");
  line2[68] = static_cast<char>('0' + TleChecksum(line2));
  EXPECT_THROW(ParseTle(kIssLine1, line2), std::invalid_argument);
}

TEST(TleTest, SyntheticRoundTrip) {
  // 15.05 rev/day ~ 550 km.
  const auto [l1, l2] = SyntheticTle(44713, 53.0, 120.0, 45.0, 15.05);
  const Tle tle = ParseTle(l1, l2);
  EXPECT_EQ(tle.catalog_number, 44713);
  EXPECT_NEAR(tle.inclination_deg, 53.0, 1e-4);
  EXPECT_NEAR(tle.AltitudeKm(), 550.0, 25.0);
}

TEST(TleTest, CatalogParsing3LineFormat) {
  const auto [a1, a2] = SyntheticTle(44713, 53.0, 0.0, 0.0, 15.05);
  const auto [b1, b2] = SyntheticTle(44714, 53.0, 5.0, 16.36, 15.05);
  const std::string text = "STARLINK-1007\n" + a1 + "\n" + a2 +
                           "\nSTARLINK-1008\n" + b1 + "\n" + b2 + "\n";
  const std::vector<Tle> tles = ParseTleCatalog(text);
  ASSERT_EQ(tles.size(), 2u);
  EXPECT_EQ(tles[0].name, "STARLINK-1007");
  EXPECT_EQ(tles[1].name, "STARLINK-1008");
  EXPECT_EQ(tles[1].catalog_number, 44714);
}

TEST(TleTest, CatalogParsing2LineFormat) {
  const auto [a1, a2] = SyntheticTle(1, 53.0, 0.0, 0.0, 15.05);
  const auto [b1, b2] = SyntheticTle(2, 97.5, 10.0, 0.0, 14.8);
  const std::vector<Tle> tles =
      ParseTleCatalog(a1 + "\n" + a2 + "\n" + b1 + "\n" + b2);
  ASSERT_EQ(tles.size(), 2u);
  EXPECT_TRUE(tles[0].name.empty());
}

TEST(TleTest, ConstellationFromCatalog) {
  std::string text;
  const int count = 24;
  for (int i = 0; i < count; ++i) {
    const auto [l1, l2] =
        SyntheticTle(1000 + i, 53.0, i * 15.0, i * 15.0, 15.05);
    text += l1 + "\n" + l2 + "\n";
  }
  const std::vector<Tle> tles = ParseTleCatalog(text);
  const Constellation c = ConstellationFromTles(tles);
  EXPECT_EQ(c.NumSatellites(), count);
  EXPECT_EQ(c.NumShells(), 1);
  EXPECT_NEAR(c.shell(0).altitude_km, 550.0, 25.0);
  // Satellites propagate on distinct orbits at the common altitude.
  const auto positions = c.PositionsEcef(600.0);
  for (const auto& p : positions) {
    EXPECT_NEAR(p.Norm() - geo::kEarthRadiusKm, c.shell(0).altitude_km, 30.0);
  }
  EXPECT_THROW(ConstellationFromTles({}), std::invalid_argument);
}

// Fuzz-style robustness: random single-character corruptions of valid
// lines must either parse (if the corruption is benign, e.g. in padding)
// or throw std::invalid_argument — never crash or mis-parse silently into
// absurd elements.
class TleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TleFuzzTest, CorruptedLinesThrowOrParseSanely) {
  const int seed = GetParam();
  uint64_t x = 0x1234567ULL * static_cast<uint64_t>(seed + 1);
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::string l1 = kIssLine1;
  std::string l2 = kIssLine2;
  std::string& target = (next() % 2 == 0) ? l1 : l2;
  const size_t pos = next() % target.size();
  const char replacement = static_cast<char>(' ' + next() % 95);
  target[pos] = replacement;
  try {
    const Tle tle = ParseTle(l1, l2);
    // If it parsed, the elements must still be physically plausible.
    EXPECT_GE(tle.inclination_deg, 0.0);
    EXPECT_LE(tle.inclination_deg, 180.0);
    EXPECT_GT(tle.mean_motion_rev_per_day, 0.0);
  } catch (const std::invalid_argument&) {
    // Expected for most corruptions (checksum or field failure).
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCorruptions, TleFuzzTest, ::testing::Range(0, 60));

// Overwrites the 1-indexed columns [first, first + text.size()) of
// `line` and recomputes its checksum digit, so the edit reaches the
// field parsers instead of failing the checksum.
std::string WithField(std::string line, int first, const std::string& text) {
  line.replace(static_cast<size_t>(first - 1), text.size(), text);
  line[68] = static_cast<char>('0' + TleChecksum(line));
  return line;
}

// std::stod reads "nan" and "inf": a NaN inclination or mean motion
// fails no `<=` test, an infinite mean motion gives a negative altitude,
// and casting the catalog field's "1e100" to int is undefined
// behaviour. Each row keeps a valid checksum.
TEST(TleTest, RejectsNonFiniteAndOutOfRangeFields) {
  struct Row {
    const char* name;
    int line;  // 1 or 2
    int first_col;
    const char* text;
  };
  const Row rows[] = {
      {"inclination nan", 2, 9, "     nan"},
      {"inclination inf", 2, 9, "     inf"},
      {"inclination > 180", 2, 9, "190.0000"},
      {"inclination < 0", 2, 9, "-51.6416"},
      {"raan nan", 2, 18, "     nan"},
      {"raan > 360", 2, 18, "400.0000"},
      {"arg perigee -inf", 2, 35, "    -inf"},
      {"mean anomaly > 360", 2, 44, "725.0288"},
      {"mean motion nan", 2, 53, "        nan"},
      {"mean motion inf", 2, 53, "        inf"},
      {"mean motion below the surface", 2, 53, "99999999999"},
      {"mean motion below the field's decimals", 2, 53, "     1e-320"},
      {"mean motion zero", 2, 53, "0.000000000"},
      {"catalog 1e100", 2, 3, "1e100"},
      {"catalog inf", 2, 3, "  inf"},
      {"catalog fraction", 2, 3, "255.5"},
      {"catalog negative", 2, 3, "-2554"},
      {"epoch year nan", 1, 19, "na"},
      {"epoch year negative", 1, 19, "-1"},
      {"epoch day nan", 1, 21, "         nan"},
      {"epoch day inf", 1, 21, "    infinity"},
  };
  for (const Row& row : rows) {
    const std::string l1 =
        row.line == 1 ? WithField(kIssLine1, row.first_col, row.text) : kIssLine1;
    const std::string l2 =
        row.line == 2 ? WithField(kIssLine2, row.first_col, row.text) : kIssLine2;
    EXPECT_THROW(ParseTle(l1, l2), std::invalid_argument) << row.name;
  }
  // The edges of each range still parse.
  EXPECT_NO_THROW(ParseTle(kIssLine1, WithField(kIssLine2, 9, "180.0000")));
  EXPECT_NO_THROW(ParseTle(kIssLine1, WithField(kIssLine2, 18, "360.0000")));
  EXPECT_NO_THROW(ParseTle(kIssLine1, WithField(kIssLine2, 3, "99999")));
  EXPECT_NO_THROW(ParseTle(kIssLine1, WithField(kIssLine2, 3, "00000")));
  EXPECT_NO_THROW(ParseTle(kIssLine1, WithField(kIssLine2, 53, " 0.00000001")));
}

// Seeded mutation fuzz of the field parsers: flip one byte, overwrite
// bytes with a number-like token, or insert a byte (shifting the rest of
// the field right by one), always inside a parsed field, then recompute
// the checksum. Every case must parse to finite, in-range fields or
// throw std::invalid_argument; the sanitizer builds run it too.
TEST(TleTest, FieldMutationsParseFiniteOrThrow) {
  struct Span {
    int line;
    int first;
    int last;
  };
  const Span fields[] = {{1, 19, 20}, {1, 21, 32}, {2, 3, 7},   {2, 9, 16},
                         {2, 18, 25}, {2, 27, 33}, {2, 35, 42}, {2, 44, 51},
                         {2, 53, 63}};
  const char* const tokens[] = {"nan", "NAN", "inf", "-inf", "infinity", "1e100",
                                "1e308", "-1e308", "0x1p9", "1e-320", "-0", "."};
  const std::string alphabet = "0123456789 +-.eEnNaAiIfFxXp";
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  int parsed = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string l1 = kIssLine1;
    std::string l2 = kIssLine2;
    const Span& f = fields[next() % std::size(fields)];
    std::string& line = f.line == 1 ? l1 : l2;
    const size_t width = static_cast<size_t>(f.last - f.first + 1);
    const size_t begin = static_cast<size_t>(f.first - 1);
    const size_t pos = begin + next() % width;
    switch (next() % 3) {
      case 0:
        line[pos] = alphabet[next() % alphabet.size()];
        break;
      case 1: {
        const std::string token = tokens[next() % std::size(tokens)];
        const size_t start = begin + next() % width;
        line.replace(start, std::min(token.size(), begin + width - start),
                     token.substr(0, begin + width - start));
        break;
      }
      default:
        line.insert(pos, 1, alphabet[next() % alphabet.size()]);
        line.erase(begin + width, 1);
        break;
    }
    ASSERT_EQ(line.size(), 69u);
    line[68] = static_cast<char>('0' + TleChecksum(line));
    try {
      const Tle tle = ParseTle(l1, l2);
      ++parsed;
      for (const double v :
           {tle.epoch_day, tle.inclination_deg, tle.raan_deg, tle.eccentricity,
            tle.arg_perigee_deg, tle.mean_anomaly_deg, tle.mean_motion_rev_per_day,
            tle.AltitudeKm()}) {
        EXPECT_TRUE(std::isfinite(v)) << l1 << "\n" << l2;
      }
      EXPECT_GE(tle.inclination_deg, 0.0) << l2;
      EXPECT_LE(tle.inclination_deg, 180.0) << l2;
      EXPECT_GT(tle.AltitudeKm(), 0.0) << l2;
      EXPECT_GE(tle.catalog_number, 0) << l2;
    } catch (const std::invalid_argument&) {
      // Expected for most mutations.
    }
  }
  // Benign mutations (a digit for a digit) must keep parsing, or the fuzz
  // only exercises the rejection paths.
  EXPECT_GT(parsed, 100);
}

TEST(TleTest, FromElementsValidatesCounts) {
  OrbitalShell metadata;
  metadata.num_planes = 2;
  metadata.sats_per_plane = 2;
  const std::vector<CircularOrbitElements> three(3);
  EXPECT_THROW(Constellation::FromElements(metadata, three), std::invalid_argument);
}

}  // namespace
}  // namespace leosim::orbit
