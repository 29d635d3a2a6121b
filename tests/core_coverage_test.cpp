#include "core/coverage_study.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "geo/coordinates.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {
namespace {

TEST(CoverageStudyTest, MidLatitudesAlwaysCovered) {
  const auto rows = RunCoverageStudy(Scenario::Starlink(), {30.0, 45.0, 50.0});
  ASSERT_EQ(rows.size(), 3u);
  for (const CoverageRow& row : rows) {
    EXPECT_DOUBLE_EQ(row.availability, 1.0) << row.latitude_deg;
    EXPECT_GT(row.mean_visible, 2.0) << row.latitude_deg;
  }
}

TEST(CoverageStudyTest, NoCoverageWellAboveInclination) {
  const auto rows = RunCoverageStudy(Scenario::Starlink(), {75.0});
  EXPECT_DOUBLE_EQ(rows[0].availability, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].mean_visible, 0.0);
}

TEST(CoverageStudyTest, DensityPeaksNearInclinationLatitude) {
  const auto rows = RunCoverageStudy(Scenario::Starlink(), {0.0, 53.0});
  EXPECT_GT(rows[1].mean_visible, 2.0 * rows[0].mean_visible);
}

// A steeper elevation mask shrinks every terminal's cone: fewer
// satellites in view and no more availability. Both averages are over
// the study's 96 samples (0 to 5,700 s every 60 s).
TEST(CoverageStudyTest, HigherElevationMaskLowersCoverage) {
  Scenario steep = Scenario::Starlink();
  steep.radio.min_elevation_deg = 40.0;
  const std::vector<double> latitudes = {10.0, 58.0, 60.0};
  const auto base = RunCoverageStudy(Scenario::Starlink(), latitudes);
  const auto masked = RunCoverageStudy(steep, latitudes);
  ASSERT_EQ(masked.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_LT(masked[i].mean_visible, base[i].mean_visible) << latitudes[i];
    EXPECT_LE(masked[i].availability, base[i].availability) << latitudes[i];
    for (const CoverageRow* row : {&base[i], &masked[i]}) {
      const double available_samples = row->availability * 96.0;
      EXPECT_NEAR(available_samples, std::round(available_samples), 1e-9)
          << latitudes[i];
    }
  }
}

TEST(CoverageStudyTest, RejectsBadLatitude) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A bad latitude reaches the index's cell lookup as an int cast, so it
  // must be rejected before the study samples anything.
  for (const double lat : {nan, inf, -inf, 90.5, -90.5, 1e9}) {
    EXPECT_THROW(RunCoverageStudy(Scenario::Starlink(), {10.0, lat}),
                 std::invalid_argument)
        << "lat " << lat;
  }

  // The poles pass, and a 53-degree shell never serves them.
  const auto rows = RunCoverageStudy(Scenario::Starlink(), {-90.0, 90.0});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].availability, 0.0);
  EXPECT_DOUBLE_EQ(rows[1].availability, 0.0);
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
