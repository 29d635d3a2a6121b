#include "core/coverage_study.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "geo/coordinates.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {
namespace {

CoverageStudyOptions FastOptions() {
  CoverageStudyOptions options;
  options.duration_sec = 1800.0;
  options.step_sec = 120.0;
  return options;
}

TEST(CoverageStudyTest, MidLatitudesAlwaysCovered) {
  CoverageStudyOptions options = FastOptions();
  options.latitudes_deg = {30.0, 45.0, 50.0};
  const auto rows = RunCoverageStudy(Scenario::Starlink(), options);
  for (const CoverageRow& row : rows) {
    EXPECT_DOUBLE_EQ(row.availability, 1.0) << row.latitude_deg;
    EXPECT_GT(row.mean_visible, 2.0) << row.latitude_deg;
  }
}

TEST(CoverageStudyTest, NoCoverageWellAboveInclination) {
  CoverageStudyOptions options = FastOptions();
  options.latitudes_deg = {75.0};
  const auto rows = RunCoverageStudy(Scenario::Starlink(), options);
  EXPECT_DOUBLE_EQ(rows[0].availability, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].mean_visible, 0.0);
}

TEST(CoverageStudyTest, DensityPeaksNearInclinationLatitude) {
  CoverageStudyOptions options = FastOptions();
  options.latitudes_deg = {0.0, 53.0};
  const auto rows = RunCoverageStudy(Scenario::Starlink(), options);
  EXPECT_GT(rows[1].mean_visible, 2.0 * rows[0].mean_visible);
}

TEST(CoverageStudyTest, MinSatellitesThresholdLowersAvailability) {
  CoverageStudyOptions one = FastOptions();
  one.latitudes_deg = {10.0};
  CoverageStudyOptions many = one;
  many.min_satellites = 8;
  const auto avail_one = RunCoverageStudy(Scenario::Starlink(), one)[0].availability;
  const auto avail_many = RunCoverageStudy(Scenario::Starlink(), many)[0].availability;
  EXPECT_LE(avail_many, avail_one);
}

TEST(CoverageStudyTest, RejectsBadCoordinatesAndThreshold) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A bad latitude reaches the index's cell lookup as an int cast, so it
  // must be rejected before the study samples anything.
  for (const double lat : {nan, inf, -inf, 90.5, -90.5, 1e9}) {
    CoverageStudyOptions options = FastOptions();
    options.latitudes_deg = {10.0, lat};
    EXPECT_THROW(options.Validate(), std::invalid_argument) << "lat " << lat;
    EXPECT_THROW(RunCoverageStudy(Scenario::Starlink(), options),
                 std::invalid_argument)
        << "lat " << lat;
  }
  for (const double lon : {nan, inf, -inf}) {
    CoverageStudyOptions options = FastOptions();
    options.longitude_deg = lon;
    EXPECT_THROW(options.Validate(), std::invalid_argument) << "lon " << lon;
    EXPECT_THROW(RunCoverageStudy(Scenario::Starlink(), options),
                 std::invalid_argument)
        << "lon " << lon;
  }
  CoverageStudyOptions negative = FastOptions();
  negative.min_satellites = -1;
  EXPECT_THROW(negative.Validate(), std::invalid_argument);
  EXPECT_THROW(RunCoverageStudy(Scenario::Starlink(), negative),
               std::invalid_argument);

  // The edges pass: the poles, any finite longitude, a zero threshold.
  CoverageStudyOptions edges = FastOptions();
  edges.latitudes_deg = {-90.0, 90.0};
  edges.longitude_deg = 540.0;
  edges.min_satellites = 0;
  EXPECT_NO_THROW(edges.Validate());
  const auto rows = RunCoverageStudy(Scenario::Starlink(), edges);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].availability, 1.0);  // >= 0 satellites always
}

TEST(StarlinkGen1Test, ShellRosterMatchesFilings) {
  const auto shells = orbit::StarlinkGen1AllShells();
  ASSERT_EQ(shells.size(), 5u);
  int total = 0;
  for (const auto& s : shells) {
    total += s.TotalSatellites();
  }
  // 1584 + 1584 + 720 + 348 + 172 = 4408.
  EXPECT_EQ(total, 4408);
  EXPECT_DOUBLE_EQ(shells[0].inclination_deg, 53.0);
  EXPECT_DOUBLE_EQ(shells[2].inclination_deg, 70.0);
  EXPECT_DOUBLE_EQ(shells[3].inclination_deg, 97.6);
}

TEST(StarlinkGen1Test, PolarShellsCoverHighLatitudes) {
  orbit::Constellation all;
  for (const auto& s : orbit::StarlinkGen1AllShells()) {
    all.AddShell(s);
  }
  // Some satellite reaches beyond 80 degrees latitude.
  double max_lat = 0.0;
  for (const auto& p : all.PositionsEcef(0.0)) {
    max_lat = std::max(max_lat, geo::EcefToGeodetic(p).latitude_deg);
  }
  EXPECT_GT(max_lat, 80.0);
}

}  // namespace
}  // namespace leosim::core
