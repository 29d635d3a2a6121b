// Two-body circular-orbit propagator.
//
// The paper's constellations fly near-circular orbits; like other LEO
// network simulators we propagate ideal circular Keplerian motion and
// rotate into the Earth-fixed frame. An optional J2 nodal-regression term
// is provided for long-horizon studies.
#pragma once

#include "geo/vec3.hpp"
#include "orbit/elements.hpp"

namespace leosim::orbit {

// J2 zonal harmonic of the Earth's gravity field.
inline constexpr double kJ2 = 1.08262668e-3;

// Secular RAAN drift rate (rad/s) caused by J2 for a circular orbit.
// Negative (westward) for prograde orbits.
double J2RaanDriftRadPerSec(double altitude_km, double inclination_deg);

class CircularOrbit {
 public:
  explicit CircularOrbit(const CircularOrbitElements& elements,
                         bool apply_j2_regression = false);

  const CircularOrbitElements& elements() const { return elements_; }

  // Position in the inertial frame at `seconds_since_epoch`, km.
  geo::Vec3 PositionEci(double seconds_since_epoch) const;

  // Position in the rotating Earth-fixed frame, km.
  geo::Vec3 PositionEcef(double seconds_since_epoch) const;

 private:
  CircularOrbitElements elements_;
  double radius_km_;
  double mean_motion_rad_s_;
  double raan_drift_rad_s_;
  // Constant angles (radians) and their trig, precomputed at construction
  // so per-timestep propagation is two sincos calls plus an affine map.
  // With J2 regression the RAAN rotation is time-dependent and its trig is
  // recomputed per call; the values below then serve as the epoch basis.
  double u0_rad_;
  double raan0_rad_;
  double cos_raan0_;
  double sin_raan0_;
  double cos_inc_;
  double sin_inc_;
};

}  // namespace leosim::orbit
