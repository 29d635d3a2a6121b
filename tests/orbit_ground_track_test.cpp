#include "orbit/ground_track.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/outage_study.hpp"
#include "geo/geodesic.hpp"
#include "orbit/elements.hpp"

namespace leosim::orbit {
namespace {

TEST(PassPredictionTest, SubSatellitePointMovesWestwardBetweenOrbits) {
  // Earth rotation shifts the ascending-node longitude west each orbit.
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const double period = OrbitalPeriodSec(550.0);
  const geo::GeodeticCoord first = geo::EcefToGeodetic(orbit.PositionEcef(0.0));
  const geo::GeodeticCoord next = geo::EcefToGeodetic(orbit.PositionEcef(period));
  double delta = first.longitude_deg - next.longitude_deg;
  while (delta < 0.0) delta += 360.0;
  // ~24 degrees of rotation in ~95.6 minutes.
  EXPECT_NEAR(delta, 24.0, 1.0);
}

TEST(PassPredictionTest, FindsPassWithPlausibleDuration) {
  // A satellite whose orbit passes near the terminal: start it south of
  // the site on the same meridian.
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const geo::GeodeticCoord site{10.0, 15.0, 0.0};
  const auto pass = FindNextPass(orbit, site, 25.0, 0.0, 86400.0);
  ASSERT_TRUE(pass.has_value());
  // Paper §2: passes last "a few minutes" — between ~30 s (grazing) and
  // ~8 minutes (overhead) for these cones.
  EXPECT_GT(pass->DurationSec(), 20.0);
  EXPECT_LT(pass->DurationSec(), 500.0);
  EXPECT_GE(pass->max_elevation_deg, 25.0);
  EXPECT_LE(pass->max_elevation_deg, 90.0);
}

TEST(PassPredictionTest, ElevationAboveThresholdThroughoutPass) {
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const geo::GeodeticCoord site{20.0, 40.0, 0.0};
  const auto pass = FindNextPass(orbit, site, 25.0, 0.0, 86400.0);
  ASSERT_TRUE(pass.has_value());
  const geo::Vec3 gt = geo::GeodeticToEcef(site);
  for (double t = pass->rise_time_sec + 1.0; t < pass->set_time_sec - 1.0;
       t += 5.0) {
    EXPECT_GE(geo::ElevationAngleDeg(gt, orbit.PositionEcef(t)), 25.0 - 0.2)
        << "t=" << t;
  }
  // Just outside the pass the satellite is below threshold.
  EXPECT_LT(geo::ElevationAngleDeg(gt, orbit.PositionEcef(pass->rise_time_sec - 5.0)),
            25.0);
  EXPECT_LT(geo::ElevationAngleDeg(gt, orbit.PositionEcef(pass->set_time_sec + 5.0)),
            25.0);
}

TEST(PassPredictionTest, NoPassForPolarSiteUnderInclinedOrbit) {
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const geo::GeodeticCoord pole{88.0, 0.0, 0.0};
  EXPECT_FALSE(FindNextPass(orbit, pole, 25.0, 0.0, 2.0 * 5760.0).has_value());
}

TEST(OutageStudyTest, MonotoneInMarginAndRestoresGraph) {
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 4.0;
  const core::NetworkModel hybrid(core::Scenario::Starlink(), options,
                                  data::AnchorCities());
  core::TrafficMatrixOptions matrix;
  matrix.num_pairs = 20;
  const auto pairs = core::SampleCityPairs(data::AnchorCities(), matrix);

  core::OutageStudyOptions outage;
  outage.margins_db = {20.0, 6.0, 2.0};
  const auto rows = core::RunOutageStudy(hybrid, pairs, outage);
  ASSERT_EQ(rows.size(), 3u);
  // Larger margin -> fewer links lost -> more pairs reachable.
  EXPECT_LE(rows[0].links_disabled_fraction, rows[1].links_disabled_fraction);
  EXPECT_LE(rows[1].links_disabled_fraction, rows[2].links_disabled_fraction);
  EXPECT_GE(rows[0].reachable_fraction, rows[1].reachable_fraction);
  EXPECT_GE(rows[1].reachable_fraction, rows[2].reachable_fraction);
  // A 20 dB margin survives essentially all 0.1% weather.
  EXPECT_GT(rows[0].reachable_fraction, 0.95);
}

}  // namespace
}  // namespace leosim::orbit
