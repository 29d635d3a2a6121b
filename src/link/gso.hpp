// GSO arc-avoidance (paper §7, Fig. 9).
//
// LEO up/down-links must keep a minimum angular separation, as seen from
// the ground terminal, from the geostationary arc, to avoid interfering
// with GSO systems sharing the band. Starlink's filings use a 22-degree
// separation; Kuiper ramps from 12 to 18 degrees.
#pragma once

#include "geo/vec3.hpp"

namespace leosim::link {

// Radius of the geostationary belt from the Earth's centre, km.
inline constexpr double kGsoRadiusKm = 42164.0;

// Position of the GSO-arc point at the given longitude (ECEF, km).
geo::Vec3 GsoArcPointEcef(double longitude_deg);

// Minimum angular separation (degrees), as seen from `gt_ecef`, between
// the direction to `target_ecef` and any point of the GSO arc that is
// above the terminal's horizon. Returns +180 when no GSO point is visible
// from the terminal (then no exclusion applies). A link violates the
// exclusion when this falls below the required separation.
double MinGsoArcSeparationDeg(const geo::Vec3& gt_ecef, const geo::Vec3& target_ecef,
                              int arc_samples = 720);

}  // namespace leosim::link
