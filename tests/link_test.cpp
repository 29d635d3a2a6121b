#include "link/visibility.hpp"

#include <gtest/gtest.h>

#include <set>

#include "geo/geodesic.hpp"
#include "link/gso.hpp"
#include "link/isl.hpp"
#include "link/radio.hpp"
#include "orbit/walker.hpp"

namespace leosim::link {
namespace {

TEST(VisibilityTest, OverheadSatelliteVisible) {
  const geo::Vec3 gt = geo::GeodeticToEcef({10.0, 20.0, 0.0});
  const geo::Vec3 sat = geo::GeodeticToEcef({10.0, 20.0, 550.0});
  EXPECT_EQ(VisibleSatellitesBruteForce(gt, {sat}, 25.0), std::vector<int>{0});
}

TEST(VisibilityTest, FarSatelliteNotVisible) {
  const geo::Vec3 gt = geo::GeodeticToEcef({10.0, 20.0, 0.0});
  const geo::Vec3 sat = geo::GeodeticToEcef({10.0, 60.0, 550.0});
  EXPECT_TRUE(VisibleSatellitesBruteForce(gt, {sat}, 25.0).empty());
}

TEST(VisibilityTest, IndexMatchesBruteForceForStarlink) {
  const auto constellation = orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  const std::vector<geo::Vec3> sats = constellation.PositionsEcef(1234.0);
  const double coverage = geo::CoverageRadiusKm(550.0, 25.0);
  const SatelliteIndex index(sats, coverage);

  const std::vector<geo::GeodeticCoord> probes = {
      {0.0, 0.0, 0.0},   {45.0, 10.0, 0.0},  {-33.9, 151.2, 0.0},
      {52.0, -170.0, 0.0}, {52.9, 5.0, 0.0}, {-52.9, -70.0, 0.0},
      {70.0, 30.0, 0.0},  {-9.7, -35.7, 0.0}};
  for (const geo::GeodeticCoord& probe : probes) {
    const geo::Vec3 gt = geo::GeodeticToEcef(probe);
    const std::vector<int> brute = VisibleSatellitesBruteForce(gt, sats, 25.0);
    const std::vector<int> indexed = index.Visible(gt, 25.0);
    EXPECT_EQ(brute, indexed) << "at lat=" << probe.latitude_deg
                              << " lon=" << probe.longitude_deg;
  }
}

TEST(VisibilityTest, MidLatitudeSeesSeveralStarlinkSats) {
  // Starlink's 53-degree shell is densest near its inclination limit; a
  // mid-latitude GT should see multiple satellites, an equatorial GT at
  // least one, and a polar GT none.
  const auto constellation = orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  const std::vector<geo::Vec3> sats = constellation.PositionsEcef(0.0);
  const double coverage = geo::CoverageRadiusKm(550.0, 25.0);
  const SatelliteIndex index(sats, coverage);

  const auto at = [&](double lat, double lon) {
    return index.Visible(geo::GeodeticToEcef({lat, lon, 0.0}), 25.0).size();
  };
  EXPECT_GE(at(45.0, 10.0), 3u);
  EXPECT_GE(at(0.0, 0.0), 1u);
  EXPECT_EQ(at(85.0, 0.0), 0u);
}

TEST(VisibilityTest, HigherMinElevationSeesFewer) {
  const auto constellation = orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  const std::vector<geo::Vec3> sats = constellation.PositionsEcef(777.0);
  const geo::Vec3 gt = geo::GeodeticToEcef({40.0, -74.0, 0.0});
  EXPECT_GE(VisibleSatellitesBruteForce(gt, sats, 25.0).size(),
            VisibleSatellitesBruteForce(gt, sats, 40.0).size());
}

TEST(RadioTest, LatencyAtLightSpeed) {
  EXPECT_NEAR(PropagationLatencyMs(299792.458), 1000.0, 1e-9);
  EXPECT_NEAR(PropagationLatencyMs(1000.0), 3.336, 0.01);
}

TEST(RadioTest, VectorOverloadMatchesScalar) {
  const geo::Vec3 a{0.0, 0.0, 0.0};
  const geo::Vec3 b{3000.0, 4000.0, 0.0};
  EXPECT_DOUBLE_EQ(PropagationLatencyMs(a, b), PropagationLatencyMs(5000.0));
}

TEST(RadioTest, DefaultConfigMatchesPaper) {
  const RadioConfig config;
  EXPECT_DOUBLE_EQ(config.capacity_gbps, 20.0);
  EXPECT_DOUBLE_EQ(config.min_elevation_deg, 25.0);
  EXPECT_DOUBLE_EQ(config.uplink_freq_ghz, 14.25);
  EXPECT_DOUBLE_EQ(config.downlink_freq_ghz, 11.7);
}

TEST(IslTest, DefaultConfigMatchesPaper) {
  const IslConfig config;
  EXPECT_DOUBLE_EQ(config.capacity_gbps, 100.0);
}

TEST(GsoTest, ArcPointGeometry) {
  const geo::Vec3 p = GsoArcPointEcef(0.0);
  EXPECT_NEAR(p.Norm(), kGsoRadiusKm, 1e-9);
  EXPECT_NEAR(p.z, 0.0, 1e-9);
  const geo::Vec3 q = GsoArcPointEcef(90.0);
  EXPECT_NEAR(q.x, 0.0, 1e-6);
  EXPECT_NEAR(q.y, kGsoRadiusKm, 1e-6);
}

TEST(GsoTest, EquatorialGtLookingAtGsoViolates) {
  // A GT on the Equator looking at a LEO satellite exactly towards the
  // zenith-adjacent GSO direction is inside the exclusion zone.
  const geo::Vec3 gt = geo::GeodeticToEcef({0.0, 0.0, 0.0});
  const geo::Vec3 sat_towards_gso = geo::GeodeticToEcef({0.0, 0.0, 550.0});
  EXPECT_LT(MinGsoArcSeparationDeg(gt, sat_towards_gso), 1.0);
}

TEST(GsoTest, HighLatitudeGtZenithIsClear) {
  // From 55N the zenith direction is far from the GSO arc (which sits low
  // on the southern horizon).
  const geo::Vec3 gt = geo::GeodeticToEcef({55.0, 0.0, 0.0});
  const geo::Vec3 overhead = geo::GeodeticToEcef({55.0, 0.0, 550.0});
  EXPECT_GT(MinGsoArcSeparationDeg(gt, overhead), 40.0);
}

TEST(GsoTest, SeparationShrinksTowardsEquator) {
  // Zenith separation from the GSO arc decreases monotonically with
  // latitude magnitude.
  double prev = 200.0;
  for (double lat : {70.0, 50.0, 30.0, 10.0, 0.0}) {
    const geo::Vec3 gt = geo::GeodeticToEcef({lat, 0.0, 0.0});
    const geo::Vec3 overhead = geo::GeodeticToEcef({lat, 0.0, 550.0});
    const double sep = MinGsoArcSeparationDeg(gt, overhead);
    EXPECT_LT(sep, prev) << "lat " << lat;
    prev = sep;
  }
}

}  // namespace
}  // namespace leosim::link
