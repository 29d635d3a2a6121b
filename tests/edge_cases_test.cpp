// Cross-module edge-case coverage: behaviours at the seams (antimeridian,
// poles, zero-length inputs, table padding) that the per-module tests
// don't reach.
#include <gtest/gtest.h>

#include <sstream>

#include "air/flight.hpp"
#include "core/report.hpp"
#include "data/cities.hpp"
#include "geo/angles.hpp"
#include "geo/geodesic.hpp"
#include "ground/relay_grid.hpp"
#include "itur/p838.hpp"
#include "orbit/isl_grid.hpp"
#include "orbit/walker.hpp"

namespace leosim {
namespace {

TEST(EdgeCaseTest, ZeroLengthFlightIsInstant) {
  const geo::GeodeticCoord spot{10.0, 20.0, 0.0};
  const air::Flight f(spot, spot, 100.0);
  EXPECT_DOUBLE_EQ(f.duration_sec(), 0.0);
  const auto pos = f.PositionAt(100.0);
  ASSERT_TRUE(pos.has_value());
  EXPECT_NEAR(pos->latitude_deg, 10.0, 1e-9);
  EXPECT_FALSE(f.PositionAt(100.1).has_value());
}

TEST(EdgeCaseTest, DestinationPointOverThePole) {
  // Travelling due north over the pole flips to the far meridian.
  const geo::GeodeticCoord start{80.0, 30.0, 0.0};
  const geo::GeodeticCoord dest = geo::DestinationPoint(start, 0.0, 2500.0);
  EXPECT_GT(dest.latitude_deg, 75.0);
  EXPECT_NEAR(geo::WrapLongitudeDeg(dest.longitude_deg + 150.0), 0.0, 1.0);
}

TEST(EdgeCaseTest, GreatCircleAcrossAntimeridian) {
  const geo::GeodeticCoord fiji{-18.1, 178.4, 0.0};
  const geo::GeodeticCoord samoa{-13.8, -171.8, 0.0};
  // ~1150 km apart, not ~38,000 (the wrong way round).
  const double d = geo::GreatCircleDistanceKm(fiji, samoa);
  EXPECT_GT(d, 800.0);
  EXPECT_LT(d, 1600.0);
}

TEST(EdgeCaseTest, RelayGridWrapsAntimeridian) {
  // Anchorage sits at -149.9; its 2,000 km disc crosses the antimeridian
  // and reaches Chukotka (eastern Siberia, positive longitudes). The grid
  // must contain land points on BOTH sides of 180 deg.
  ground::RelayGridConfig config;
  config.spacing_deg = 2.0;
  const auto grid = ground::BuildRelayGrid({data::FindCity("Anchorage")}, config);
  bool positive_lon = false;
  bool negative_lon = false;
  for (const geo::GeodeticCoord& p : grid) {
    if (p.longitude_deg > 160.0) {
      positive_lon = true;
    }
    if (p.longitude_deg < -140.0) {
      negative_lon = true;
    }
  }
  EXPECT_TRUE(positive_lon);
  EXPECT_TRUE(negative_lon);
}

TEST(EdgeCaseTest, IntermediatePointDegenerate) {
  const geo::GeodeticCoord a{45.0, 45.0, 0.0};
  const geo::GeodeticCoord mid = geo::IntermediatePoint(a, a, 0.5);
  EXPECT_NEAR(mid.latitude_deg, 45.0, 1e-9);
  EXPECT_NEAR(mid.longitude_deg, 45.0, 1e-9);
}

TEST(EdgeCaseTest, TablePadsShortRows) {
  core::Table table({"a", "b", "c"});
  table.AddRow({"only"});
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(EdgeCaseTest, P838ExactAtEveryTableFrequency) {
  // Interpolation must reproduce the tabulated endpoints exactly.
  for (const double f : {1.0, 2.0, 4.0, 10.0, 20.0, 40.0, 100.0}) {
    const auto lo = itur::P838Coefficients(f, itur::Polarisation::kHorizontal);
    EXPECT_GT(lo.k, 0.0) << f;
    EXPECT_GT(lo.alpha, 0.0) << f;
    // Querying a hair above/below the knot stays continuous.
    if (f < 100.0) {
      const auto near = itur::P838Coefficients(f * 1.0001,
                                               itur::Polarisation::kHorizontal);
      EXPECT_NEAR(near.k, lo.k, lo.k * 0.01) << f;
    }
  }
}

TEST(EdgeCaseTest, WalkerShellWithSingleSatellite) {
  orbit::OrbitalShell tiny;
  tiny.num_planes = 1;
  tiny.sats_per_plane = 1;
  const auto c = orbit::Constellation::WalkerDelta(tiny);
  EXPECT_EQ(c.NumSatellites(), 1);
  EXPECT_EQ(c.IdOf(0), (orbit::SatelliteId{0, 0, 0}));
  // A 1x1 shell has no ISL partners.
  EXPECT_TRUE(orbit::PlusGridIsls(c, 0).empty());
}

TEST(EdgeCaseTest, RaanOffsetRotatesShell) {
  orbit::OrbitalShell base;
  base.num_planes = 4;
  base.sats_per_plane = 4;
  orbit::OrbitalShell rotated = base;
  rotated.raan_offset_deg = 45.0;
  const auto a = orbit::Constellation::WalkerDelta(base);
  const auto b = orbit::Constellation::WalkerDelta(rotated);
  EXPECT_DOUBLE_EQ(b.orbit(0).elements().raan_deg,
                   a.orbit(0).elements().raan_deg + 45.0);
}

TEST(EdgeCaseTest, CitiesNeverAtExactPoles) {
  for (const data::City& c : data::AnchorCities()) {
    EXPECT_LT(std::abs(c.latitude_deg), 78.0) << c.name;
  }
}

}  // namespace
}  // namespace leosim
