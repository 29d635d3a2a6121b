#include "geo/geodesic.hpp"

#include <algorithm>
#include <cmath>

#include "geo/angles.hpp"

namespace leosim::geo {

double GreatCircleDistanceKm(const GeodeticCoord& a, const GeodeticCoord& b) {
  const double lat_a = DegToRad(a.latitude_deg);
  const double lat_b = DegToRad(b.latitude_deg);
  const double dlat = lat_b - lat_a;
  const double dlon = DegToRad(b.longitude_deg - a.longitude_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h =
      sin_dlat * sin_dlat + std::cos(lat_a) * std::cos(lat_b) * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

GeodeticCoord IntermediatePoint(const GeodeticCoord& a, const GeodeticCoord& b,
                                double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const Vec3 va = GeodeticToEcef({a.latitude_deg, a.longitude_deg, 0.0}).Normalized();
  const Vec3 vb = GeodeticToEcef({b.latitude_deg, b.longitude_deg, 0.0}).Normalized();
  const double omega = AngleBetweenRad(va, vb);
  Vec3 v;
  if (omega < 1e-12) {
    v = va;
  } else {
    const double s = std::sin(omega);
    v = va * (std::sin((1.0 - fraction) * omega) / s) +
        vb * (std::sin(fraction * omega) / s);
  }
  GeodeticCoord out = EcefToGeodetic(v * kEarthRadiusKm);
  out.altitude_km = a.altitude_km + fraction * (b.altitude_km - a.altitude_km);
  return out;
}

GeodeticCoord DestinationPoint(const GeodeticCoord& start, double bearing_deg,
                               double distance_km) {
  const double lat1 = DegToRad(start.latitude_deg);
  const double lon1 = DegToRad(start.longitude_deg);
  const double bearing = DegToRad(bearing_deg);
  const double delta = distance_km / kEarthRadiusKm;
  const double sin_lat2 = std::sin(lat1) * std::cos(delta) +
                          std::cos(lat1) * std::sin(delta) * std::cos(bearing);
  const double lat2 = std::asin(std::clamp(sin_lat2, -1.0, 1.0));
  const double y = std::sin(bearing) * std::sin(delta) * std::cos(lat1);
  const double x = std::cos(delta) - std::sin(lat1) * sin_lat2;
  const double lon2 = lon1 + std::atan2(y, x);
  return {RadToDeg(lat2), WrapLongitudeDeg(RadToDeg(lon2)), start.altitude_km};
}

double ElevationAngleDeg(const Vec3& observer, const Vec3& target) {
  const Vec3 up = observer.Normalized();
  const Vec3 to_target = target - observer;
  const double range = to_target.Norm();
  if (range == 0.0) {
    return 90.0;
  }
  const double sin_el = std::clamp(up.Dot(to_target) / range, -1.0, 1.0);
  return RadToDeg(std::asin(sin_el));
}

double CoverageRadiusKm(double altitude_km, double min_elevation_deg) {
  const double e = DegToRad(min_elevation_deg);
  const double ratio = kEarthRadiusKm / (kEarthRadiusKm + altitude_km);
  // Earth central angle between sub-satellite point and the edge of
  // coverage: lambda = acos(ratio * cos e) - e.
  const double lambda = std::acos(std::clamp(ratio * std::cos(e), -1.0, 1.0)) - e;
  return kEarthRadiusKm * lambda;
}

double MaxSlantRangeKm(double altitude_km, double min_elevation_deg) {
  const double e = DegToRad(min_elevation_deg);
  const double rs = kEarthRadiusKm + altitude_km;
  const double sin_e = std::sin(e);
  // Law of cosines in the Earth-centre / terminal / satellite triangle.
  return std::sqrt(rs * rs - kEarthRadiusKm * kEarthRadiusKm * std::cos(e) * std::cos(e)) -
         kEarthRadiusKm * sin_e;
}

double SegmentMinAltitudeKm(const Vec3& a, const Vec3& b) {
  const Vec3 d = b - a;
  const double len2 = d.NormSquared();
  double t = 0.0;
  if (len2 > 0.0) {
    // Closest approach of the segment to the Earth's centre.
    t = std::clamp(-a.Dot(d) / len2, 0.0, 1.0);
  }
  const Vec3 closest = a + d * t;
  return closest.Norm() - kEarthRadiusKm;
}

}  // namespace leosim::geo
