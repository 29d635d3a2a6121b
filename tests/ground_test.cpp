#include "ground/relay_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "data/city_catalog.hpp"
#include "data/landmask.hpp"
#include "geo/angles.hpp"
#include "geo/geodesic.hpp"
#include "ground/fiber.hpp"

namespace leosim::ground {
namespace {

std::vector<data::City> TestCities() {
  return {data::FindCity("Paris"), data::FindCity("Delhi"), data::FindCity("Sydney")};
}

// The relay grid builder as it was before the bitmap and row raster: a
// haversine and a hash-set insert per cell of each city's bounding box,
// then a point-in-polygon land test per marked cell. Kept verbatim as the
// reference the fast builder must match element for element, in order.
int64_t ReferenceCellKey(int lat_idx, int lon_idx, int lon_cells) {
  return static_cast<int64_t>(lat_idx) * lon_cells + lon_idx;
}

std::vector<geo::GeodeticCoord> ReferenceBuildRelayGrid(
    const std::vector<data::City>& cities, const RelayGridConfig& config) {
  const double spacing = config.spacing_deg;
  const int lat_cells = static_cast<int>(std::lround(180.0 / spacing));
  const int lon_cells = static_cast<int>(std::lround(360.0 / spacing));
  const double radius_deg = geo::RadToDeg(kRelayRadiusKm / geo::kEarthRadiusKm);

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
            kRelayRadiusKm) {
          marked.insert(ReferenceCellKey(li, wrapped, lon_cells));
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

data::City MakeCity(const char* name, double lat, double lon) {
  data::City city;
  city.name = name;
  city.latitude_deg = lat;
  city.longitude_deg = lon;
  return city;
}

// A city about kRelayRadiusKm from `cell` at `bearing_deg`, moved by up to
// 32 ulps of latitude and of longitude to the haversine distance from the
// cell closest to kRelayRadiusKm on its inside (at most it, `inside`) or
// its outside. Either way the cell sits on the disc's edge, where one ulp
// of the haversine decides. The bearing must be within 30
// degrees of north or south, so that the cell stays inside the builders'
// longitude window, which is narrower than the disc far from the city's
// meridian.
std::optional<data::City> CityOnEdgeOf(const geo::GeodeticCoord& cell, double bearing_deg,
                                       bool inside) {
  const geo::GeodeticCoord start = geo::DestinationPoint(cell, bearing_deg, kRelayRadiusKm);
  constexpr int kSteps = 32;
  const auto nudge = [](double x, int ulps) {
    for (; ulps > 0; --ulps) {
      x = std::nextafter(x, 1e9);
    }
    for (; ulps < 0; ++ulps) {
      x = std::nextafter(x, -1e9);
    }
    return x;
  };
  std::optional<data::City> best;
  double best_gap = std::numeric_limits<double>::infinity();
  for (int i = -kSteps; i <= kSteps; ++i) {
    const double lat = nudge(start.latitude_deg, i);
    for (int j = -kSteps; j <= kSteps; ++j) {
      const double lon = nudge(start.longitude_deg, j);
      const double km = geo::GreatCircleDistanceKm({lat, lon, 0.0}, cell);
      const double gap = inside ? kRelayRadiusKm - km : km - kRelayRadiusKm;
      if ((inside ? gap >= 0.0 : gap > 0.0) && gap < best_gap) {
        best = MakeCity("edge", lat, lon);
        best_gap = gap;
      }
    }
  }
  return best;
}

TEST(RelayGridTest, AllPointsOnLand) {
  RelayGridConfig config;
  config.spacing_deg = 2.0;
  const auto grid = BuildRelayGrid(TestCities(), config);
  const data::LandMask& mask = data::LandMask::Instance();
  for (const geo::GeodeticCoord& p : grid) {
    EXPECT_TRUE(mask.IsLand(p.latitude_deg, p.longitude_deg))
        << p.latitude_deg << "," << p.longitude_deg;
  }
}

TEST(RelayGridTest, AllPointsWithinRadiusOfSomeCity) {
  RelayGridConfig config;
  config.spacing_deg = 2.0;
  const auto cities = TestCities();
  const auto grid = BuildRelayGrid(cities, config);
  for (const geo::GeodeticCoord& p : grid) {
    double best = 1e18;
    for (const data::City& c : cities) {
      best = std::min(best, geo::GreatCircleDistanceKm(c.Coord(), p));
    }
    EXPECT_LE(best, kRelayRadiusKm + 1.0);
  }
}

TEST(RelayGridTest, CoversNeighbourhoodOfEachCity) {
  RelayGridConfig config;
  config.spacing_deg = 2.0;
  const auto cities = TestCities();
  const auto grid = BuildRelayGrid(cities, config);
  for (const data::City& c : cities) {
    int nearby = 0;
    for (const geo::GeodeticCoord& p : grid) {
      if (geo::GreatCircleDistanceKm(c.Coord(), p) < 500.0) {
        ++nearby;
      }
    }
    EXPECT_GT(nearby, 5) << c.name;
  }
}

TEST(RelayGridTest, FinerSpacingYieldsMorePoints) {
  RelayGridConfig coarse;
  coarse.spacing_deg = 4.0;
  RelayGridConfig fine;
  fine.spacing_deg = 2.0;
  const auto cities = TestCities();
  EXPECT_GT(BuildRelayGrid(cities, fine).size(), 2 * BuildRelayGrid(cities, coarse).size());
}

TEST(RelayGridTest, NoDuplicatePoints) {
  RelayGridConfig config;
  config.spacing_deg = 2.0;
  const auto grid = BuildRelayGrid(TestCities(), config);
  std::set<std::pair<double, double>> seen;
  for (const geo::GeodeticCoord& p : grid) {
    EXPECT_TRUE(seen.insert({p.latitude_deg, p.longitude_deg}).second);
  }
}

TEST(RelayGridTest, PaperScaleGridIsLarge) {
  // With the full city list and 0.5-degree spacing the grid has tens of
  // thousands of stations; use 1 degree here to keep the test fast but
  // still assert the order of magnitude.
  RelayGridConfig config;
  config.spacing_deg = 1.0;
  const auto grid = BuildRelayGrid(data::AnchorCities(), config);
  EXPECT_GT(grid.size(), 8000u);
  EXPECT_LT(grid.size(), 40000u);
}

TEST(RelayGridTest, RejectsNonPositiveOrNonFiniteSpacing) {
  // 180 / spacing feeds lround: a zero, negative or non-finite spacing
  // must fail loudly instead of yielding an empty (or UB-sized) grid.
  for (const double spacing :
       {0.0, -0.0, -1.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    RelayGridConfig config;
    config.spacing_deg = spacing;
    EXPECT_THROW(BuildRelayGrid(TestCities(), config), std::invalid_argument)
        << spacing;
  }
  RelayGridConfig coarse;
  coarse.spacing_deg = 90.0;
  EXPECT_NO_THROW(BuildRelayGrid(TestCities(), coarse));
}

TEST(RelayGridTest, MatchesReferenceInOrder) {
  struct Case {
    std::string what;
    std::vector<data::City> cities;
    double spacing_deg;
    // For an edge case: the cell on the disc's edge, and whether it is in.
    std::optional<geo::GeodeticCoord> edge_cell{};
    bool inside{false};
  };
  const std::vector<data::City>& anchors = data::AnchorCities();
  std::vector<Case> cases;
  for (const double spacing : {0.5, 0.7, 1.0, 2.0, 3.0}) {
    cases.push_back({"anchors", anchors, spacing});
  }
  for (const uint64_t seed : {1, 2}) {
    cases.push_back({"generated seed " + std::to_string(seed),
                     data::GenerateWorldCities(1000, seed), 0.5});
  }
  // Anchorage's disc crosses the antimeridian.
  cases.push_back({"anchorage", {data::FindCity("Anchorage")}, 2.0});
  // Near the poles the longitude window is the whole row (and wraps).
  const std::vector<data::City> polar = {
      MakeCity("north", 89.0, 10.0), MakeCity("south", -89.0, -170.0),
      MakeCity("north-edge", 89.0, 179.75), MakeCity("south-grid", -89.0, -180.0)};
  cases.push_back({"poles", polar, 0.5});
  cases.push_back({"poles", polar, 1.0});
  // Cities on grid points, on the antimeridian and past it.
  const std::vector<data::City> on_grid = {
      MakeCity("grid", -25.0, 135.0), MakeCity("dateline", 65.0, 180.0),
      MakeCity("west", 64.0, -180.0), MakeCity("past", 60.0, 190.0)};
  cases.push_back({"on grid", on_grid, 1.0});
  // Land cells of Paris's disc, each put on the edge of another city's
  // disc from a different bearing, just inside and just outside it.
  RelayGridConfig wide;
  wide.spacing_deg = 1.0;
  const auto disc = ReferenceBuildRelayGrid({data::FindCity("Paris")}, wide);
  for (size_t i = 0, n = 0; i < disc.size(); i += disc.size() / 64 + 1, ++n) {
    // Within 30 degrees of north for even n, of south for odd n.
    const double bearing = std::fmod(37.0 * static_cast<double>(n), 60.0) - 30.0 +
                           (n % 2 == 0 ? 0.0 : 180.0);
    for (const bool inside : {true, false}) {
      const std::string what = "edge cell " + std::to_string(i) + (inside ? " in" : " out");
      const std::optional<data::City> city = CityOnEdgeOf(disc[i], bearing, inside);
      ASSERT_TRUE(city.has_value()) << what;
      cases.push_back({what, {*city}, 1.0, disc[i], inside});
    }
  }

  for (const Case& c : cases) {
    RelayGridConfig config;
    config.spacing_deg = c.spacing_deg;
    const auto want = ReferenceBuildRelayGrid(c.cities, config);
    const auto got = BuildRelayGrid(c.cities, config);
    const std::string label = c.what + " @ " + std::to_string(c.spacing_deg) + " deg";
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].latitude_deg, want[i].latitude_deg) << label << " at " << i;
      ASSERT_EQ(got[i].longitude_deg, want[i].longitude_deg) << label << " at " << i;
      ASSERT_EQ(got[i].altitude_km, want[i].altitude_km) << label << " at " << i;
    }
    if (c.edge_cell.has_value()) {
      const bool found = std::any_of(got.begin(), got.end(), [&](const auto& p) {
        return p.latitude_deg == c.edge_cell->latitude_deg &&
               p.longitude_deg == c.edge_cell->longitude_deg;
      });
      EXPECT_EQ(found, c.inside) << label;
    }
  }
}

TEST(FiberTest, LatencySlowerThanFreeSpace) {
  const double ms = FiberLatencyMs(1000.0);
  const double free_space_ms = 1000.0 / geo::kSpeedOfLightKmPerSec * 1000.0;
  EXPECT_GT(ms, free_space_ms);
  EXPECT_NEAR(ms, free_space_ms * 1.47 * 1.2, 1e-9);
}

TEST(FiberTest, ParisGroupContainsNearbyCities) {
  const FiberGroup group = BuildFiberGroup(data::AnchorCities());
  EXPECT_EQ(group.metro.name, "Paris");
  EXPECT_EQ(group.satellites_cities.size(), 5u);
  for (const data::City& c : group.satellites_cities) {
    EXPECT_NE(c.name, "Paris");
    EXPECT_LE(geo::GreatCircleDistanceKm(group.metro.Coord(), c.Coord()), 250.0);
  }
}

TEST(FiberTest, GroupSortedByPopulation) {
  const FiberGroup group = BuildFiberGroup(data::AnchorCities());
  for (size_t i = 1; i < group.satellites_cities.size(); ++i) {
    EXPECT_GE(group.satellites_cities[i - 1].population_k,
              group.satellites_cities[i].population_k);
  }
}

}  // namespace
}  // namespace leosim::ground
