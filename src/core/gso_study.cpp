#include "core/gso_study.hpp"

#include <cmath>
#include <stdexcept>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"
#include "link/gso.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

// ECEF point 1000 km out from `gt` along the direction given by azimuth
// (clockwise from north) and elevation in the local horizon frame.
geo::Vec3 DirectionTarget(const geo::Vec3& gt, double gt_lat_deg, double gt_lon_deg,
                          double azimuth_deg, double elevation_deg) {
  const double lat = geo::DegToRad(gt_lat_deg);
  const double lon = geo::DegToRad(gt_lon_deg);
  // Local ENU basis in ECEF.
  const geo::Vec3 up{std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
                     std::sin(lat)};
  const geo::Vec3 east{-std::sin(lon), std::cos(lon), 0.0};
  const geo::Vec3 north = up.Cross(east);
  const double az = geo::DegToRad(azimuth_deg);
  const double el = geo::DegToRad(elevation_deg);
  const geo::Vec3 dir = north * (std::cos(el) * std::cos(az)) +
                        east * (std::cos(el) * std::sin(az)) + up * std::sin(el);
  return gt + dir * 1000.0;
}

}  // namespace

void GsoStudyOptions::Validate() const {
  // NaN fails too; the samplers add each step until the elevation passes
  // 90 degrees or the azimuth 360.
  for (const double step : {azimuth_step_deg, elevation_step_deg}) {
    if (!(std::isfinite(step) && step > 0.0 && 360.0 + step > 360.0)) {
      throw std::invalid_argument(
          "gso options: sampling steps must be finite, > 0 and advance past "
          "360 degrees");
    }
  }
}

std::vector<GsoStudyRow> RunGsoArcStudy(const std::vector<double>& latitudes_deg,
                                        const GsoStudyOptions& options) {
  const obs::Span span("study.gso_arc");
  options.Validate();
  std::vector<GsoStudyRow> rows;
  rows.reserve(latitudes_deg.size());
  for (const double lat : latitudes_deg) {
    const geo::Vec3 gt = geo::GeodeticToEcef({lat, 0.0, 0.0});
    double usable_weight = 0.0;
    double excluded_weight = 0.0;
    for (double el = options.min_elevation_deg; el < 90.0;
         el += options.elevation_step_deg) {
      // Solid-angle weight of this elevation band.
      const double weight = std::cos(geo::DegToRad(el));
      for (double az = 0.0; az < 360.0; az += options.azimuth_step_deg) {
        const geo::Vec3 target = DirectionTarget(gt, lat, 0.0, az, el);
        usable_weight += weight;
        if (link::MinGsoArcSeparationDeg(gt, target, 360) < options.separation_deg) {
          excluded_weight += weight;
        }
      }
    }
    GsoStudyRow row;
    row.latitude_deg = lat;
    row.excluded_sky_fraction =
        usable_weight > 0.0 ? excluded_weight / usable_weight : 0.0;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace leosim::core
