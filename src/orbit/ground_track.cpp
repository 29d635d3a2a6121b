#include "orbit/ground_track.hpp"

#include <algorithm>

#include "geo/geodesic.hpp"

namespace leosim::orbit {

namespace {

constexpr double kCoarseStepSec = 10.0;
constexpr double kBisectionToleranceSec = 0.1;

double ElevationAt(const CircularOrbit& orbit, const geo::Vec3& gt, double t) {
  return geo::ElevationAngleDeg(gt, orbit.PositionEcef(t));
}

// Refines the visibility boundary in (lo, hi] where the predicate
// "elevation >= threshold" changes value.
double BisectBoundary(const CircularOrbit& orbit, const geo::Vec3& gt,
                      double threshold, double lo, double hi, bool rising) {
  while (hi - lo > kBisectionToleranceSec) {
    const double mid = 0.5 * (lo + hi);
    const bool visible = ElevationAt(orbit, gt, mid) >= threshold;
    if (visible == rising) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

std::optional<Pass> FindNextPass(const CircularOrbit& orbit,
                                 const geo::GeodeticCoord& terminal,
                                 double min_elevation_deg, double t0_sec,
                                 double horizon_sec) {
  const geo::Vec3 gt = geo::GeodeticToEcef(terminal);
  const double t_end = t0_sec + horizon_sec;

  // Coarse scan for the rise.
  double prev_t = t0_sec;
  bool prev_visible = ElevationAt(orbit, gt, t0_sec) >= min_elevation_deg;
  double rise = prev_visible ? t0_sec : -1.0;
  for (double t = t0_sec + kCoarseStepSec; rise < 0.0 && t <= t_end;
       t += kCoarseStepSec) {
    const bool visible = ElevationAt(orbit, gt, t) >= min_elevation_deg;
    if (visible && !prev_visible) {
      rise = BisectBoundary(orbit, gt, min_elevation_deg, prev_t, t, true);
    }
    prev_visible = visible;
    prev_t = t;
  }
  if (rise < 0.0) {
    return std::nullopt;
  }

  // Scan forward for the set, tracking max elevation.
  Pass pass;
  pass.rise_time_sec = rise;
  pass.max_elevation_deg = ElevationAt(orbit, gt, rise);
  prev_t = rise;
  for (double t = rise + kCoarseStepSec;; t += kCoarseStepSec) {
    const double elevation = ElevationAt(orbit, gt, t);
    if (elevation < min_elevation_deg) {
      pass.set_time_sec =
          BisectBoundary(orbit, gt, min_elevation_deg, prev_t, t, false);
      break;
    }
    pass.max_elevation_deg = std::max(pass.max_elevation_deg, elevation);
    prev_t = t;
  }
  return pass;
}

}  // namespace leosim::orbit
