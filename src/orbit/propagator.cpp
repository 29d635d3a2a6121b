#include "orbit/propagator.hpp"

#include <cmath>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"

namespace leosim::orbit {

double J2RaanDriftRadPerSec(double altitude_km, double inclination_deg) {
  const double r = OrbitRadiusKm(altitude_km);
  const double n = MeanMotionRadPerSec(altitude_km);
  const double re_over_r = geo::kEarthRadiusKm / r;
  return -1.5 * kJ2 * n * re_over_r * re_over_r *
         std::cos(geo::DegToRad(inclination_deg));
}

CircularOrbit::CircularOrbit(const CircularOrbitElements& elements,
                             bool apply_j2_regression)
    : elements_(elements),
      radius_km_(OrbitRadiusKm(elements.altitude_km)),
      mean_motion_rad_s_(MeanMotionRadPerSec(elements.altitude_km)),
      raan_drift_rad_s_(apply_j2_regression
                            ? J2RaanDriftRadPerSec(elements.altitude_km,
                                                   elements.inclination_deg)
                            : 0.0),
      u0_rad_(geo::DegToRad(elements.arg_latitude_epoch_deg)),
      raan0_rad_(geo::DegToRad(elements.raan_deg)),
      cos_raan0_(std::cos(raan0_rad_)),
      sin_raan0_(std::sin(raan0_rad_)),
      cos_inc_(std::cos(geo::DegToRad(elements.inclination_deg))),
      sin_inc_(std::sin(geo::DegToRad(elements.inclination_deg))) {}

geo::Vec3 CircularOrbit::PositionEci(double seconds_since_epoch) const {
  const double u = u0_rad_ + mean_motion_rad_s_ * seconds_since_epoch;
  double cos_raan = cos_raan0_;
  double sin_raan = sin_raan0_;
  if (raan_drift_rad_s_ != 0.0) {
    const double raan = raan0_rad_ + raan_drift_rad_s_ * seconds_since_epoch;
    cos_raan = std::cos(raan);
    sin_raan = std::sin(raan);
  }
  const double cos_u = std::cos(u);
  const double sin_u = std::sin(u);
  // In-plane position (cos u, sin u, 0) scaled by r, rotated into the
  // inertial frame by RAAN and inclination.
  return {radius_km_ * (cos_raan * cos_u - sin_raan * sin_u * cos_inc_),
          radius_km_ * (sin_raan * cos_u + cos_raan * sin_u * cos_inc_),
          radius_km_ * sin_u * sin_inc_};
}

geo::Vec3 CircularOrbit::PositionEcef(double seconds_since_epoch) const {
  return geo::EciToEcef(PositionEci(seconds_since_epoch), seconds_since_epoch);
}

}  // namespace leosim::orbit
