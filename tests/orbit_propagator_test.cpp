#include "orbit/propagator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"
#include "orbit/elements.hpp"

namespace leosim::orbit {
namespace {

TEST(ElementsTest, StarlinkPeriodNear96Minutes) {
  const double period_min = OrbitalPeriodSec(550.0) / 60.0;
  EXPECT_NEAR(period_min, 95.5, 0.5);  // paper: "~100 minutes"
}

TEST(ElementsTest, KuiperPeriodSlightlyLonger) {
  EXPECT_GT(OrbitalPeriodSec(630.0), OrbitalPeriodSec(550.0));
}

TEST(ElementsTest, OrbitalSpeedNear7point6) {
  // LEO at 550 km moves at ~7.59 km/s.
  EXPECT_NEAR(OrbitalSpeedKmPerSec(550.0), 7.59, 0.05);
}

TEST(ElementsTest, MeanMotionTimesPeriodIsTwoPi) {
  const double n = MeanMotionRadPerSec(550.0);
  const double period = OrbitalPeriodSec(550.0);
  EXPECT_NEAR(n * period, 2.0 * geo::kPi, 1e-9);
}

TEST(PropagatorTest, RadiusConstantOverOrbit) {
  const CircularOrbit orbit({550.0, 53.0, 30.0, 45.0});
  for (double t = 0.0; t <= 6000.0; t += 500.0) {
    EXPECT_NEAR(orbit.PositionEci(t).Norm(), OrbitRadiusKm(550.0), 1e-6);
  }
}

TEST(PropagatorTest, ReturnsToStartAfterOnePeriod) {
  const CircularOrbit orbit({550.0, 53.0, 12.0, 34.0});
  const double period = OrbitalPeriodSec(550.0);
  const geo::Vec3 start = orbit.PositionEci(0.0);
  const geo::Vec3 after = orbit.PositionEci(period);
  EXPECT_NEAR(start.DistanceTo(after), 0.0, 1e-6);
}

TEST(PropagatorTest, HalfPeriodIsOpposite) {
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const double period = OrbitalPeriodSec(550.0);
  const geo::Vec3 start = orbit.PositionEci(0.0);
  const geo::Vec3 half = orbit.PositionEci(period / 2.0);
  EXPECT_NEAR((start + half).Norm(), 0.0, 1e-6);
}

TEST(PropagatorTest, InclinationBoundsLatitude) {
  const CircularOrbit orbit({550.0, 53.0, 77.0, 0.0});
  double max_abs_lat = 0.0;
  for (double t = 0.0; t < OrbitalPeriodSec(550.0); t += 10.0) {
    const geo::GeodeticCoord g = geo::EcefToGeodetic(orbit.PositionEcef(t));
    max_abs_lat = std::max(max_abs_lat, std::fabs(g.latitude_deg));
  }
  EXPECT_LE(max_abs_lat, 53.0 + 1e-6);
  EXPECT_GT(max_abs_lat, 52.5);  // must actually reach the inclination
}

TEST(PropagatorTest, EquatorialOrbitStaysEquatorial) {
  const CircularOrbit orbit({550.0, 0.0, 0.0, 0.0});
  for (double t = 0.0; t < 6000.0; t += 600.0) {
    EXPECT_NEAR(orbit.PositionEci(t).z, 0.0, 1e-9);
  }
}

TEST(PropagatorTest, PolarOrbitCrossesPoles) {
  const CircularOrbit orbit({550.0, 90.0, 0.0, 0.0});
  double max_z = 0.0;
  for (double t = 0.0; t < OrbitalPeriodSec(550.0); t += 5.0) {
    max_z = std::max(max_z, orbit.PositionEci(t).z);
  }
  EXPECT_NEAR(max_z, OrbitRadiusKm(550.0), 1.0);
}

TEST(PropagatorTest, MovesAtOrbitalSpeedAlongTheTangent) {
  // Central-difference velocity: circular speed, perpendicular to r.
  const CircularOrbit orbit({630.0, 51.9, 45.0, 60.0});
  const double dt = 1e-3;
  for (double t = 0.0; t < 3000.0; t += 300.0) {
    const geo::Vec3 r = orbit.PositionEci(t);
    const geo::Vec3 v =
        (orbit.PositionEci(t + dt) - orbit.PositionEci(t - dt)) / (2.0 * dt);
    EXPECT_NEAR(r.Dot(v) / (r.Norm() * v.Norm()), 0.0, 1e-9);
    EXPECT_NEAR(v.Norm(), OrbitalSpeedKmPerSec(630.0), 1e-5);
  }
}

TEST(PropagatorTest, J2DriftWestwardForPrograde) {
  EXPECT_LT(J2RaanDriftRadPerSec(550.0, 53.0), 0.0);
  // Starlink-like orbits regress roughly -5 deg/day.
  const double deg_per_day = geo::RadToDeg(J2RaanDriftRadPerSec(550.0, 53.0)) * 86400.0;
  EXPECT_NEAR(deg_per_day, -5.0, 1.0);
}

TEST(PropagatorTest, J2DriftZeroForPolar) {
  EXPECT_NEAR(J2RaanDriftRadPerSec(550.0, 90.0), 0.0, 1e-15);
}

TEST(PropagatorTest, J2RegressionShiftsOrbitPlane) {
  const CircularOrbitElements elements{550.0, 53.0, 0.0, 0.0};
  const CircularOrbit no_j2(elements, false);
  const CircularOrbit with_j2(elements, true);
  const double day = 86400.0;
  EXPECT_GT(no_j2.PositionEci(day).DistanceTo(with_j2.PositionEci(day)), 100.0);
}

// Parameterized sweep: period grows monotonically with altitude.
class PeriodMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(PeriodMonotoneTest, PeriodIncreasesWithAltitude) {
  const double h = GetParam();
  EXPECT_GT(OrbitalPeriodSec(h + 50.0), OrbitalPeriodSec(h));
}

INSTANTIATE_TEST_SUITE_P(Altitudes, PeriodMonotoneTest,
                         ::testing::Values(300.0, 550.0, 630.0, 1100.0, 1500.0));

}  // namespace
}  // namespace leosim::orbit
