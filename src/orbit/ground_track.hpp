// Pass prediction for a single orbit: when does the next satellite rise
// over a site.
#pragma once

#include <optional>

#include "geo/coordinates.hpp"
#include "orbit/propagator.hpp"

namespace leosim::orbit {

struct Pass {
  double rise_time_sec{0.0};
  double set_time_sec{0.0};
  double max_elevation_deg{0.0};

  double DurationSec() const { return set_time_sec - rise_time_sec; }
};

// Next interval after `t0_sec` (within `horizon_sec`) during which the
// satellite is visible from `terminal` at >= min_elevation_deg. Rise/set
// are refined by bisection to ~0.1 s. Returns nullopt if no pass starts
// inside the horizon.
std::optional<Pass> FindNextPass(const CircularOrbit& orbit,
                                 const geo::GeodeticCoord& terminal,
                                 double min_elevation_deg, double t0_sec,
                                 double horizon_sec);

}  // namespace leosim::orbit
