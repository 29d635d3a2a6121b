#include "data/landmask.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "geo/angles.hpp"

namespace leosim::data {

namespace {

// The latitudes below 70S count as land (Antarctica), those above 85N as
// water (Arctic ice pack).
constexpr double kAllLandBelowLat = -70.0;
constexpr double kAllWaterAboveLat = 85.0;

// Whether the edge (xi, yi)-(xj, yj) crosses the parallel `lat`, and the
// longitude where it does. Both the point and the row queries use these,
// so their answers agree bit for bit.
bool EdgeCrosses(double yi, double yj, double lat) { return (yi > lat) != (yj > lat); }

double CrossingLon(double xi, double yi, double xj, double yj, double lat) {
  return (xj - xi) * (lat - yi) / (yj - yi) + xi;
}

// Standard even-odd ray-casting test in the (lon, lat) plane.
bool PointInPolygon(const LandPolygon& poly, double lon, double lat) {
  bool inside = false;
  const size_t n = poly.lon_lat.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const auto [xi, yi] = poly.lon_lat[i];
    const auto [xj, yj] = poly.lon_lat[j];
    if (EdgeCrosses(yi, yj, lat) && lon < CrossingLon(xi, yi, xj, yj, lat)) {
      inside = !inside;
    }
  }
  return inside;
}

}  // namespace

LandMask::LandMask() {
  for (const LandPolygon& poly : LandPolygons()) {
    IndexedPolygon idx{&poly, 1e9, -1e9, 1e9, -1e9};
    for (const auto& [lon, lat] : poly.lon_lat) {
      idx.min_lon = std::min(idx.min_lon, lon);
      idx.max_lon = std::max(idx.max_lon, lon);
      idx.min_lat = std::min(idx.min_lat, lat);
      idx.max_lat = std::max(idx.max_lat, lat);
    }
    index_.push_back(idx);
  }
}

const LandMask& LandMask::Instance() {
  static const LandMask mask;
  return mask;
}

bool LandMask::IsLand(double latitude_deg, double longitude_deg) const {
  if (latitude_deg <= kAllLandBelowLat) {
    return true;
  }
  if (latitude_deg >= kAllWaterAboveLat) {
    return false;
  }
  const double lon = geo::WrapLongitudeDeg(longitude_deg);
  for (const IndexedPolygon& idx : index_) {
    if (lon < idx.min_lon || lon > idx.max_lon || latitude_deg < idx.min_lat ||
        latitude_deg > idx.max_lat) {
      continue;
    }
    if (PointInPolygon(*idx.polygon, lon, latitude_deg)) {
      return true;
    }
  }
  return false;
}

LandMask::Row LandMask::AtLatitude(double latitude_deg) const {
  Row row;
  if (latitude_deg <= kAllLandBelowLat) {
    row.all_land_ = true;
    return row;
  }
  if (latitude_deg >= kAllWaterAboveLat) {
    return row;  // no polygons: all water
  }
  for (const IndexedPolygon& idx : index_) {
    if (latitude_deg < idx.min_lat || latitude_deg > idx.max_lat) {
      continue;
    }
    const size_t begin = row.crossings_.size();
    const auto& vertices = idx.polygon->lon_lat;
    const size_t n = vertices.size();
    for (size_t i = 0, j = n - 1; i < n; j = i++) {
      const auto [xi, yi] = vertices[i];
      const auto [xj, yj] = vertices[j];
      if (EdgeCrosses(yi, yj, latitude_deg)) {
        row.crossings_.push_back(CrossingLon(xi, yi, xj, yj, latitude_deg));
      }
    }
    std::sort(row.crossings_.begin() + static_cast<std::ptrdiff_t>(begin),
              row.crossings_.end());
    row.polygons_.push_back({idx.min_lon, idx.max_lon, begin, row.crossings_.size()});
  }
  return row;
}

bool LandMask::Row::IsLand(double longitude_deg) const {
  if (all_land_) {
    return true;
  }
  const double lon = geo::WrapLongitudeDeg(longitude_deg);
  for (const Polygon& poly : polygons_) {
    if (lon < poly.min_lon || lon > poly.max_lon) {
      continue;
    }
    // PointInPolygon toggles once per crossing east of lon (lon < x).
    const auto first = crossings_.begin() + static_cast<std::ptrdiff_t>(poly.begin);
    const auto last = crossings_.begin() + static_cast<std::ptrdiff_t>(poly.end);
    if ((last - std::upper_bound(first, last, lon)) % 2 == 1) {
      return true;
    }
  }
  return false;
}

double LandMask::LandFraction(int samples) const {
  // Fibonacci-sphere sampling: near-uniform over the sphere surface.
  const double golden_angle = geo::kPi * (3.0 - std::sqrt(5.0));
  int land = 0;
  for (int i = 0; i < samples; ++i) {
    const double z = 1.0 - 2.0 * (i + 0.5) / samples;
    const double lat = geo::RadToDeg(std::asin(z));
    const double lon = geo::WrapLongitudeDeg(geo::RadToDeg(golden_angle * i));
    if (IsLand(lat, lon)) {
      ++land;
    }
  }
  return static_cast<double>(land) / samples;
}

}  // namespace leosim::data
