#include "core/gso_study.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"
#include "link/gso.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

// Fig. 9's terminal: Starlink's full-deployment minimum elevation, and the
// sky dome sampled every 3 degrees of azimuth and 1.5 degrees of elevation.
constexpr double kMinElevationDeg = 40.0;
constexpr double kAzimuthStepDeg = 3.0;
constexpr double kElevationStepDeg = 1.5;

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

std::vector<GsoStudyRow> RunGsoArcStudy(const std::vector<double>& latitudes_deg,
                                        double separation_deg) {
  const obs::Span span("study.gso_arc");
  // Written so that NaN fails: a NaN separation would exclude nothing and
  // a NaN latitude would print a nan row.
  if (!(separation_deg >= 0.0 && separation_deg <= 180.0)) {
    throw std::invalid_argument("gso arc study: separation_deg must be in [0, 180], got " +
                                std::to_string(separation_deg));
  }
  for (const double lat : latitudes_deg) {
    if (!(lat >= -90.0 && lat <= 90.0)) {
      throw std::invalid_argument("gso arc study: latitude must be in [-90, 90], got " +
                                  std::to_string(lat));
    }
  }
  std::vector<GsoStudyRow> rows;
  rows.reserve(latitudes_deg.size());
  for (const double lat : latitudes_deg) {
    const geo::Vec3 gt = geo::GeodeticToEcef({lat, 0.0, 0.0});
    double usable_weight = 0.0;
    double excluded_weight = 0.0;
    for (double el = kMinElevationDeg; el < 90.0; el += kElevationStepDeg) {
      // Solid-angle weight of this elevation band.
      const double weight = std::cos(geo::DegToRad(el));
      for (double az = 0.0; az < 360.0; az += kAzimuthStepDeg) {
        const geo::Vec3 target = DirectionTarget(gt, lat, 0.0, az, el);
        usable_weight += weight;
        if (link::MinGsoArcSeparationDeg(gt, target, 360) < separation_deg) {
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
