#include "geo/coordinates.hpp"

#include <gtest/gtest.h>

#include "geo/angles.hpp"

namespace leosim::geo {
namespace {

TEST(AnglesTest, DegRadRoundTrip) {
  EXPECT_DOUBLE_EQ(RadToDeg(DegToRad(123.456)), 123.456);
  EXPECT_DOUBLE_EQ(DegToRad(180.0), kPi);
}

TEST(AnglesTest, WrapLongitude) {
  EXPECT_DOUBLE_EQ(WrapLongitudeDeg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(WrapLongitudeDeg(190.0), -170.0);
  EXPECT_DOUBLE_EQ(WrapLongitudeDeg(-190.0), 170.0);
  EXPECT_DOUBLE_EQ(WrapLongitudeDeg(360.0), 0.0);
  EXPECT_DOUBLE_EQ(WrapLongitudeDeg(540.0), -180.0);
}

TEST(CoordinatesTest, EquatorPrimeMeridian) {
  const Vec3 ecef = GeodeticToEcef({0.0, 0.0, 0.0});
  EXPECT_NEAR(ecef.x, kEarthRadiusKm, 1e-9);
  EXPECT_NEAR(ecef.y, 0.0, 1e-9);
  EXPECT_NEAR(ecef.z, 0.0, 1e-9);
}

TEST(CoordinatesTest, NorthPole) {
  const Vec3 ecef = GeodeticToEcef({90.0, 0.0, 0.0});
  EXPECT_NEAR(ecef.x, 0.0, 1e-9);
  EXPECT_NEAR(ecef.z, kEarthRadiusKm, 1e-9);
}

TEST(CoordinatesTest, AltitudeIncreasesRadius) {
  const Vec3 ecef = GeodeticToEcef({45.0, 45.0, 550.0});
  EXPECT_NEAR(ecef.Norm(), kEarthRadiusKm + 550.0, 1e-9);
}

TEST(CoordinatesTest, SphericalRoundTrip) {
  const GeodeticCoord g{47.3769, 8.5417, 0.408};  // Zurich
  const GeodeticCoord back = EcefToGeodetic(GeodeticToEcef(g));
  EXPECT_NEAR(back.latitude_deg, g.latitude_deg, 1e-9);
  EXPECT_NEAR(back.longitude_deg, g.longitude_deg, 1e-9);
  EXPECT_NEAR(back.altitude_km, g.altitude_km, 1e-9);
}

TEST(CoordinatesTest, EcefToGeodeticAtOrigin) {
  const GeodeticCoord g = EcefToGeodetic({0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(g.altitude_km, -kEarthRadiusKm);
}

TEST(CoordinatesTest, EciEcefIdentityAtEpoch) {
  const Vec3 p{1000.0, 2000.0, 3000.0};
  EXPECT_EQ(EciToEcef(p, 0.0), p);
}

TEST(CoordinatesTest, EciEcefRoundTrip) {
  // Rotating by -t undoes the rotation by t.
  const Vec3 p{7000.0, -1234.0, 2500.0};
  const double t = 4321.0;
  const Vec3 back = EciToEcef(EciToEcef(p, t), -t);
  EXPECT_NEAR(back.x, p.x, 1e-9);
  EXPECT_NEAR(back.y, p.y, 1e-9);
  EXPECT_NEAR(back.z, p.z, 1e-9);
}

TEST(CoordinatesTest, EarthRotatesEastward) {
  // A point fixed in ECI above the prime meridian appears to move westward
  // in ECEF (longitude decreases) as the Earth rotates eastward under it.
  const Vec3 eci = GeodeticToEcef({0.0, 0.0, 550.0});
  const GeodeticCoord after = EcefToGeodetic(EciToEcef(eci, 600.0));
  EXPECT_LT(after.longitude_deg, 0.0);
  EXPECT_NEAR(after.longitude_deg,
              -RadToDeg(kEarthRotationRadPerSec * 600.0), 1e-9);
}

TEST(CoordinatesTest, FullSiderealDayReturnsHome) {
  const double sidereal_day_sec = 2.0 * kPi / kEarthRotationRadPerSec;
  const Vec3 p{6921.0, 0.0, 0.0};
  const Vec3 rotated = EciToEcef(p, sidereal_day_sec);
  EXPECT_NEAR(rotated.x, p.x, 1e-6);
  EXPECT_NEAR(rotated.y, p.y, 1e-6);
}

}  // namespace
}  // namespace leosim::geo
