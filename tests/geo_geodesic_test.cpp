#include "geo/geodesic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/angles.hpp"

namespace leosim::geo {
namespace {

constexpr GeodeticCoord kLondon{51.5074, -0.1278, 0.0};
constexpr GeodeticCoord kNewYork{40.7128, -74.0060, 0.0};
constexpr GeodeticCoord kSydney{-33.8688, 151.2093, 0.0};

TEST(GeodesicTest, ZeroDistanceToSelf) {
  EXPECT_DOUBLE_EQ(GreatCircleDistanceKm(kLondon, kLondon), 0.0);
}

TEST(GeodesicTest, LondonToNewYork) {
  // Published great-circle distance ~5570 km (spherical Earth).
  EXPECT_NEAR(GreatCircleDistanceKm(kLondon, kNewYork), 5570.0, 30.0);
}

TEST(GeodesicTest, AntipodalIsHalfCircumference) {
  const GeodeticCoord a{0.0, 0.0, 0.0};
  const GeodeticCoord b{0.0, 180.0, 0.0};
  EXPECT_NEAR(GreatCircleDistanceKm(a, b), kPi * kEarthRadiusKm, 1e-6);
}

TEST(GeodesicTest, Symmetry) {
  EXPECT_DOUBLE_EQ(GreatCircleDistanceKm(kLondon, kSydney),
                   GreatCircleDistanceKm(kSydney, kLondon));
}

TEST(GeodesicTest, OneDegreeAlongEquator) {
  const GeodeticCoord a{0.0, 0.0, 0.0};
  const GeodeticCoord b{0.0, 1.0, 0.0};
  EXPECT_NEAR(GreatCircleDistanceKm(a, b), kEarthRadiusKm * DegToRad(1.0), 1e-9);
}

TEST(GeodesicTest, IntermediatePointEndpoints) {
  const GeodeticCoord start = IntermediatePoint(kLondon, kNewYork, 0.0);
  const GeodeticCoord end = IntermediatePoint(kLondon, kNewYork, 1.0);
  EXPECT_NEAR(start.latitude_deg, kLondon.latitude_deg, 1e-9);
  EXPECT_NEAR(end.longitude_deg, kNewYork.longitude_deg, 1e-9);
}

TEST(GeodesicTest, IntermediatePointHalfwaySplitsDistance) {
  const GeodeticCoord mid = IntermediatePoint(kLondon, kNewYork, 0.5);
  const double d1 = GreatCircleDistanceKm(kLondon, mid);
  const double d2 = GreatCircleDistanceKm(mid, kNewYork);
  EXPECT_NEAR(d1, d2, 1e-6);
  EXPECT_NEAR(d1 + d2, GreatCircleDistanceKm(kLondon, kNewYork), 1e-6);
}

TEST(GeodesicTest, IntermediatePointInterpolatesAltitude) {
  const GeodeticCoord a{10.0, 20.0, 0.0};
  const GeodeticCoord b{30.0, 40.0, 10.0};
  EXPECT_NEAR(IntermediatePoint(a, b, 0.25).altitude_km, 2.5, 1e-12);
}

TEST(GeodesicTest, DestinationPointTravelsTheGivenDistance) {
  for (const double bearing : {0.0, 45.0, 90.0, 200.0, 300.0}) {
    const GeodeticCoord dest = DestinationPoint(kLondon, bearing, 5000.0);
    EXPECT_NEAR(GreatCircleDistanceKm(kLondon, dest), 5000.0, 1e-6) << bearing;
  }
  // Due east along the equator keeps latitude and adds longitude.
  const GeodeticCoord east =
      DestinationPoint({0.0, 0.0, 0.0}, 90.0, kEarthRadiusKm * DegToRad(30.0));
  EXPECT_NEAR(east.latitude_deg, 0.0, 1e-9);
  EXPECT_NEAR(east.longitude_deg, 30.0, 1e-9);
}

TEST(GeodesicTest, ElevationStraightUpIs90) {
  const Vec3 observer = GeodeticToEcef({20.0, 30.0, 0.0});
  const Vec3 overhead = GeodeticToEcef({20.0, 30.0, 550.0});
  EXPECT_NEAR(ElevationAngleDeg(observer, overhead), 90.0, 1e-4);
}

TEST(GeodesicTest, ElevationAtHorizonNearZero) {
  // A satellite far around the curve of the Earth is below the horizon.
  const Vec3 observer = GeodeticToEcef({0.0, 0.0, 0.0});
  const Vec3 far_sat = GeodeticToEcef({0.0, 90.0, 550.0});
  EXPECT_LT(ElevationAngleDeg(observer, far_sat), 0.0);
}

TEST(GeodesicTest, ElevationDecreasesWithGroundDistance) {
  const Vec3 observer = GeodeticToEcef({0.0, 0.0, 0.0});
  double prev = 90.0;
  for (double lon = 1.0; lon < 15.0; lon += 1.0) {
    const double e = ElevationAngleDeg(observer, GeodeticToEcef({0.0, lon, 550.0}));
    EXPECT_LT(e, prev);
    prev = e;
  }
}

TEST(GeodesicTest, StarlinkCoverageRadiusMatchesPaper) {
  // Paper §2: e=25 deg, h=550 km -> coverage radius 941 km.
  EXPECT_NEAR(CoverageRadiusKm(550.0, 25.0), 941.0, 6.0);
}

TEST(GeodesicTest, CoverageRadiusShrinksWithElevation) {
  EXPECT_GT(CoverageRadiusKm(550.0, 25.0), CoverageRadiusKm(550.0, 40.0));
  EXPECT_GT(CoverageRadiusKm(630.0, 25.0), CoverageRadiusKm(550.0, 25.0));
}

TEST(GeodesicTest, CoverageRadiusZeroAtZenithOnly) {
  EXPECT_NEAR(CoverageRadiusKm(550.0, 90.0), 0.0, 1e-9);
}

TEST(GeodesicTest, MaxSlantRangeAtZenithEqualsAltitude) {
  EXPECT_NEAR(MaxSlantRangeKm(550.0, 90.0), 550.0, 1e-6);
}

TEST(GeodesicTest, MaxSlantRangeConsistentWithCoverageGeometry) {
  // The slant range at minimum elevation must exceed the altitude and the
  // chord implied by the coverage radius must be shorter than the slant.
  const double slant = MaxSlantRangeKm(550.0, 25.0);
  EXPECT_GT(slant, 550.0);
  EXPECT_LT(slant, 2000.0);

  // Verify against explicit ECEF geometry: place the satellite at the edge
  // of coverage and measure elevation.
  const double coverage = CoverageRadiusKm(550.0, 25.0);
  const double lambda_deg = RadToDeg(coverage / kEarthRadiusKm);
  const Vec3 observer = GeodeticToEcef({0.0, 0.0, 0.0});
  const Vec3 sat = GeodeticToEcef({0.0, lambda_deg, 550.0});
  EXPECT_NEAR(ElevationAngleDeg(observer, sat), 25.0, 0.01);
  EXPECT_NEAR(observer.DistanceTo(sat), slant, 1.0);
}

TEST(GeodesicTest, SegmentMinAltitudeOfSurfacePointsIsZero) {
  const Vec3 a = GeodeticToEcef({0.0, 0.0, 0.0});
  EXPECT_NEAR(SegmentMinAltitudeKm(a, a), 0.0, 1e-9);
}

TEST(GeodesicTest, SegmentBetweenNearbySatsStaysHigh) {
  const Vec3 a = GeodeticToEcef({0.0, 0.0, 550.0});
  const Vec3 b = GeodeticToEcef({0.0, 10.0, 550.0});
  const double min_alt = SegmentMinAltitudeKm(a, b);
  EXPECT_GT(min_alt, 500.0);
  EXPECT_LT(min_alt, 550.0);
}

TEST(GeodesicTest, SegmentThroughEarthGoesNegative) {
  const Vec3 a = GeodeticToEcef({0.0, 0.0, 550.0});
  const Vec3 b = GeodeticToEcef({0.0, 180.0, 550.0});
  EXPECT_LT(SegmentMinAltitudeKm(a, b), 0.0);
}

// Property: triangle inequality for great-circle distances.
class GeodesicTriangleTest : public ::testing::TestWithParam<int> {};

TEST_P(GeodesicTriangleTest, TriangleInequality) {
  const int seed = GetParam();
  auto pseudo = [seed](int i) {
    const double v = std::sin(seed * 101.3 + i * 37.7) * 10000.0;
    return v - std::floor(v);
  };
  const GeodeticCoord a{pseudo(0) * 160 - 80, pseudo(1) * 360 - 180, 0.0};
  const GeodeticCoord b{pseudo(2) * 160 - 80, pseudo(3) * 360 - 180, 0.0};
  const GeodeticCoord c{pseudo(4) * 160 - 80, pseudo(5) * 360 - 180, 0.0};
  EXPECT_LE(GreatCircleDistanceKm(a, c),
            GreatCircleDistanceKm(a, b) + GreatCircleDistanceKm(b, c) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomTriples, GeodesicTriangleTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace leosim::geo
