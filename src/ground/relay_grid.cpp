#include "ground/relay_grid.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "data/landmask.hpp"
#include "geo/angles.hpp"
#include "geo/geodesic.hpp"

namespace leosim::ground {

namespace {

// Packs a (lat index, lon index) grid cell into one key.
int64_t CellKey(int lat_idx, int lon_idx, int lon_cells) {
  return static_cast<int64_t>(lat_idx) * lon_cells + lon_idx;
}

}  // namespace

std::vector<geo::GeodeticCoord> BuildRelayGrid(const std::vector<data::City>& cities,
                                               const RelayGridConfig& config) {
  const double spacing = config.spacing_deg;
  if (!(spacing > 0.0) || !std::isfinite(spacing)) {
    throw std::invalid_argument("relay grid spacing_deg must be finite and > 0");
  }
  // A NaN or infinite radius would reach floor() and an int cast below.
  if (!(config.radius_km >= 0.0) || !std::isfinite(config.radius_km)) {
    throw std::invalid_argument("relay grid radius_km must be finite and >= 0");
  }
  const int lat_cells = static_cast<int>(std::lround(180.0 / spacing));
  const int lon_cells = static_cast<int>(std::lround(360.0 / spacing));
  const double radius_deg = geo::RadToDeg(config.radius_km / geo::kEarthRadiusKm);

  // Mark grid cells within the coverage disc of any city.
  std::unordered_set<int64_t> marked;
  for (const data::City& city : cities) {
    const int lat_lo = static_cast<int>(
        std::floor((city.latitude_deg - radius_deg + 90.0) / spacing));
    const int lat_hi = static_cast<int>(
        std::ceil((city.latitude_deg + radius_deg + 90.0) / spacing));
    for (int li = std::max(lat_lo, 0); li <= std::min(lat_hi, lat_cells - 1); ++li) {
      const double lat = -90.0 + li * spacing;
      // Longitude window widens with latitude; near the poles scan it all.
      const double cos_lat = std::cos(geo::DegToRad(lat));
      const double lon_window =
          cos_lat > 0.05 ? radius_deg / cos_lat : 180.0;
      const int lon_lo = static_cast<int>(
          std::floor((city.longitude_deg - lon_window + 180.0) / spacing));
      const int lon_hi = static_cast<int>(
          std::ceil((city.longitude_deg + lon_window + 180.0) / spacing));
      for (int raw = lon_lo; raw <= lon_hi; ++raw) {
        const int wrapped = ((raw % lon_cells) + lon_cells) % lon_cells;
        const double lon = -180.0 + wrapped * spacing;
        if (geo::GreatCircleDistanceKm(city.Coord(), {lat, lon, 0.0}) <=
            config.radius_km) {
          marked.insert(CellKey(li, wrapped, lon_cells));
        }
      }
    }
  }

  // Keep the marked cells that fall on land.
  const data::LandMask& mask = data::LandMask::Instance();
  std::vector<geo::GeodeticCoord> grid;
  grid.reserve(marked.size() / 3);
  for (const int64_t key : marked) {
    const int li = static_cast<int>(key / lon_cells);
    const int wi = static_cast<int>(key % lon_cells);
    const double lat = -90.0 + li * spacing;
    const double lon = -180.0 + wi * spacing;
    if (mask.IsLand(lat, lon)) {
      grid.push_back({lat, lon, 0.0});
    }
  }
  return grid;
}

}  // namespace leosim::ground
