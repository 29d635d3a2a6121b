#include "link/gso.hpp"

#include <algorithm>
#include <cmath>

#include "geo/angles.hpp"
#include "geo/geodesic.hpp"

namespace leosim::link {

geo::Vec3 GsoArcPointEcef(double longitude_deg) {
  const double lon = geo::DegToRad(longitude_deg);
  return {kGsoRadiusKm * std::cos(lon), kGsoRadiusKm * std::sin(lon), 0.0};
}

double MinGsoArcSeparationDeg(const geo::Vec3& gt_ecef, const geo::Vec3& target_ecef,
                              int arc_samples) {
  const geo::Vec3 to_target = target_ecef - gt_ecef;
  double min_sep = 180.0;
  for (int i = 0; i < arc_samples; ++i) {
    const double lon = -180.0 + 360.0 * i / arc_samples;
    const geo::Vec3 gso = GsoArcPointEcef(lon);
    if (geo::ElevationAngleDeg(gt_ecef, gso) < 0.0) {
      continue;  // this stretch of the arc is below the horizon
    }
    const double sep = geo::RadToDeg(geo::AngleBetweenRad(to_target, gso - gt_ecef));
    min_sep = std::min(min_sep, sep);
  }
  return min_sep;
}

}  // namespace leosim::link
