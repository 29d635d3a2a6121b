#include "ground/relay_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>

#include "data/landmask.hpp"
#include "geo/angles.hpp"
#include "geo/coordinates.hpp"

namespace leosim::ground {

namespace {

// Cell states in the per-row bitmaps.
constexpr uint8_t kMarked = 1;  // within kRelayRadiusKm of some city
constexpr uint8_t kLand = 2;    // marked and on land

// Packs a (lat index, lon index) grid cell into one key.
int64_t CellKey(int lat_idx, int lon_idx, int lon_cells) {
  return static_cast<int64_t>(lat_idx) * lon_cells + lon_idx;
}

// geo::GreatCircleDistanceKm(city, cell) <= kRelayRadiusKm, term for term
// and in the same order, with the row's terms (sin of half the latitude
// difference, product of the two latitude cosines) passed in.
bool WithinRadius(double sin_dlat, double cos_ab, double city_lon, double lon) {
  const double dlon = geo::DegToRad(lon - city_lon);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat + cos_ab * sin_dlon * sin_dlon;
  return 2.0 * geo::kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h))) <=
         kRelayRadiusKm;
}

// Margins of the trig-free shortcut below; each is many orders of
// magnitude above the rounding it absorbs.
constexpr double kRelAngleMargin = 1e-9;  // on the disc's angular radius
constexpr double kHaversineSlack = 1e-12;  // on h; WithinRadius rounds h by < 1e-14
constexpr double kLonSlackDeg = 1e-9;     // on the band edges; asin rounds < 1e-11 deg
constexpr double kMaxSinSq = 1.0 - 1e-6;  // keeps asin off its infinite slope at 1

// Where on one row a city's disc needs the exact test. Along a row the
// haversine h(e) = sin_dlat^2 + cos_ab * sin^2(e / 2) grows with the
// longitude offset e, reduced to [0, 180] degrees. An offset at most
// accept_deg has a real h at least kHaversineSlack below
// sin^2(theta * (1 - kRelAngleMargin)), so WithinRadius is true there
// whatever its rounding; one above reject_deg has a real h that much above
// sin^2(theta * (1 + kRelAngleMargin)), so it is false. Only offsets in
// between are evaluated. Both bounds are computed so that their own
// rounding moves them into the band, never out of it.
struct ExactBand {
  double accept_deg{-1.0};  // accepts nothing
  double reject_deg{360.0};  // rejects nothing
};

// h_in and h_out are sin^2 of theta = kRelayRadiusKm / (2 R) shrunk and
// grown by kRelAngleMargin. A 2,000 km disc stays far from its city's
// antipode, where asin's slope would outgrow the margins.
ExactBand BandOf(double sin_dlat, double cos_ab, double h_in, double h_out) {
  ExactBand band;
  // A zero product would divide by zero; the whole row is evaluated.
  if (!(cos_ab > 0.0)) {
    return band;
  }
  const double c = sin_dlat * sin_dlat;
  const double s_in = (h_in - c - kHaversineSlack) / cos_ab;
  if (s_in >= 0.0) {
    band.accept_deg =
        geo::RadToDeg(2.0 * std::asin(std::sqrt(std::min(s_in, kMaxSinSq)))) -
        kLonSlackDeg;
  }
  const double s_out = (h_out - c + kHaversineSlack) / cos_ab;
  if (s_out < 0.0) {
    band.reject_deg = -1.0;  // the whole row is outside
  } else if (s_out < kMaxSinSq) {
    band.reject_deg = geo::RadToDeg(2.0 * std::asin(std::sqrt(s_out))) + kLonSlackDeg;
  }
  return band;
}

}  // namespace

std::vector<geo::GeodeticCoord> BuildRelayGrid(const std::vector<data::City>& cities,
                                               const RelayGridConfig& config) {
  const double spacing = config.spacing_deg;
  if (!(spacing > 0.0) || !std::isfinite(spacing)) {
    throw std::invalid_argument("relay grid spacing_deg must be finite and > 0");
  }
  const int lat_cells = static_cast<int>(std::lround(180.0 / spacing));
  const int lon_cells = static_cast<int>(std::lround(360.0 / spacing));
  const double radius_deg = geo::RadToDeg(kRelayRadiusKm / geo::kEarthRadiusKm);
  const double theta = kRelayRadiusKm / (2.0 * geo::kEarthRadiusKm);
  const double sin_in = std::sin(theta * (1.0 - kRelAngleMargin));
  const double sin_out = std::sin(theta * (1.0 + kRelAngleMargin));

  // Mark grid cells within the coverage disc of any city. A row's bitmap
  // is allocated when a disc first reaches it; a marked cell is not
  // tested again, so each key is inserted once, when first marked.
  //
  // Relay ids are the iteration order of this default-constructed set.
  // It receives the same distinct keys in the same order as it always
  // has, so ids (and every Dijkstra tie-break and trace byte that depends
  // on them) stay put. reserve() would change the set's rehash history
  // and with it the order.
  std::vector<std::vector<uint8_t>> rows(static_cast<size_t>(lat_cells));
  std::unordered_set<int64_t> marked;
  for (const data::City& city : cities) {
    const double lat_a = geo::DegToRad(city.latitude_deg);
    const double cos_a = std::cos(lat_a);
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
      // Past lon_cells steps the window only revisits cells.
      const int lon_hi = std::min(
          static_cast<int>(std::ceil((city.longitude_deg + lon_window + 180.0) / spacing)),
          lon_lo + lon_cells - 1);

      const double sin_dlat = std::sin((geo::DegToRad(lat) - lat_a) / 2.0);
      const double cos_ab = cos_a * cos_lat;
      // The band reduces offsets assuming |city longitude| <= 180; any
      // other city is tested cell by cell.
      const ExactBand band =
          std::fabs(city.longitude_deg) <= 180.0
              ? BandOf(sin_dlat, cos_ab, sin_in * sin_in, sin_out * sin_out)
              : ExactBand{};
      if (band.reject_deg < 0.0) {
        continue;
      }
      std::vector<uint8_t>& row = rows[static_cast<size_t>(li)];
      if (row.empty()) {
        row.assign(static_cast<size_t>(lon_cells), 0);
      }
      int wrapped = ((lon_lo % lon_cells) + lon_cells) % lon_cells;
      for (int raw = lon_lo; raw <= lon_hi; ++raw, ++wrapped) {
        if (wrapped == lon_cells) {
          wrapped = 0;
        }
        uint8_t& cell = row[static_cast<size_t>(wrapped)];
        if (cell != 0) {
          continue;
        }
        const double lon = -180.0 + wrapped * spacing;
        double offset = std::fabs(lon - city.longitude_deg);
        if (offset > 180.0) {
          offset = 360.0 - offset;
        }
        if (offset <= band.accept_deg ||
            (offset <= band.reject_deg &&
             WithinRadius(sin_dlat, cos_ab, city.longitude_deg, lon))) {
          cell = kMarked;
          marked.insert(CellKey(li, wrapped, lon_cells));
        }
      }
    }
  }

  // Keep the marked cells that fall on land, one row query per row.
  const data::LandMask& mask = data::LandMask::Instance();
  for (int li = 0; li < lat_cells; ++li) {
    std::vector<uint8_t>& row = rows[static_cast<size_t>(li)];
    if (row.empty()) {
      continue;
    }
    const data::LandMask::Row land = mask.AtLatitude(-90.0 + li * spacing);
    for (int wi = 0; wi < lon_cells; ++wi) {
      uint8_t& cell = row[static_cast<size_t>(wi)];
      if (cell == kMarked && land.IsLand(-180.0 + wi * spacing)) {
        cell = kLand;
      }
    }
  }

  std::vector<geo::GeodeticCoord> grid;
  grid.reserve(marked.size() / 3);
  for (const int64_t key : marked) {
    const int li = static_cast<int>(key / lon_cells);
    const int wi = static_cast<int>(key % lon_cells);
    if (rows[static_cast<size_t>(li)][static_cast<size_t>(wi)] == kLand) {
      grid.push_back({-90.0 + li * spacing, -180.0 + wi * spacing, 0.0});
    }
  }
  return grid;
}

}  // namespace leosim::ground
