#include "geo/coordinates.hpp"

#include <cmath>

#include "geo/angles.hpp"

namespace leosim::geo {

Vec3 GeodeticToEcef(const GeodeticCoord& g) {
  const double lat = DegToRad(g.latitude_deg);
  const double lon = DegToRad(g.longitude_deg);
  const double r = kEarthRadiusKm + g.altitude_km;
  return {r * std::cos(lat) * std::cos(lon), r * std::cos(lat) * std::sin(lon),
          r * std::sin(lat)};
}

GeodeticCoord EcefToGeodetic(const Vec3& ecef) {
  const double r = ecef.Norm();
  GeodeticCoord g;
  if (r == 0.0) {
    g.altitude_km = -kEarthRadiusKm;
    return g;
  }
  g.latitude_deg = RadToDeg(std::asin(ecef.z / r));
  g.longitude_deg = WrapLongitudeDeg(RadToDeg(std::atan2(ecef.y, ecef.x)));
  g.altitude_km = r - kEarthRadiusKm;
  return g;
}

Vec3 EciToEcef(const Vec3& eci, double seconds_since_epoch) {
  const double theta = kEarthRotationRadPerSec * seconds_since_epoch;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  // ECEF frame rotates by +theta relative to ECI, so positions rotate by
  // -theta when expressed in ECEF.
  return {c * eci.x + s * eci.y, -s * eci.x + c * eci.y, eci.z};
}

}  // namespace leosim::geo
