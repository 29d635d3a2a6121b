#include "ground/relay_grid.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "data/landmask.hpp"
#include "geo/geodesic.hpp"
#include "ground/fiber.hpp"
#include "ground/station.hpp"

namespace leosim::ground {
namespace {

std::vector<data::City> TestCities() {
  return {data::FindCity("Paris"), data::FindCity("Delhi"), data::FindCity("Sydney")};
}

TEST(StationTest, KindNames) {
  EXPECT_EQ(ToString(StationKind::kCity), "city");
  EXPECT_EQ(ToString(StationKind::kRelay), "relay");
  EXPECT_EQ(ToString(StationKind::kAircraft), "aircraft");
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
    EXPECT_LE(best, config.radius_km + 1.0);
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

TEST(RelayGridTest, RejectsNegativeOrNonFiniteRadius) {
  for (const double radius :
       {-1.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    RelayGridConfig config;
    config.spacing_deg = 10.0;
    config.radius_km = radius;
    EXPECT_THROW(BuildRelayGrid(TestCities(), config), std::invalid_argument)
        << radius;
  }
  RelayGridConfig zero;
  zero.spacing_deg = 10.0;
  zero.radius_km = 0.0;
  EXPECT_NO_THROW(BuildRelayGrid(TestCities(), zero));
}

TEST(FiberTest, LatencySlowerThanFreeSpace) {
  const double ms = FiberLatencyMs(1000.0);
  const double free_space_ms = 1000.0 / geo::kSpeedOfLightKmPerSec * 1000.0;
  EXPECT_GT(ms, free_space_ms);
  EXPECT_NEAR(ms, free_space_ms * 1.47 * 1.2, 1e-9);
}

TEST(FiberTest, ParisGroupContainsNearbyCities) {
  const FiberGroup group = BuildFiberGroup(data::AnchorCities(), "Paris", 250.0, 5);
  EXPECT_EQ(group.metro.name, "Paris");
  EXPECT_EQ(group.satellites_cities.size(), 5u);
  for (const data::City& c : group.satellites_cities) {
    EXPECT_NE(c.name, "Paris");
    EXPECT_LE(geo::GreatCircleDistanceKm(group.metro.Coord(), c.Coord()), 250.0);
  }
}

TEST(FiberTest, GroupSortedByPopulation) {
  const FiberGroup group = BuildFiberGroup(data::AnchorCities(), "Paris", 250.0, 5);
  for (size_t i = 1; i < group.satellites_cities.size(); ++i) {
    EXPECT_GE(group.satellites_cities[i - 1].population_k,
              group.satellites_cities[i].population_k);
  }
}

TEST(FiberTest, UnknownMetroThrows) {
  EXPECT_THROW(BuildFiberGroup(data::AnchorCities(), "Nowhere"), std::out_of_range);
}

}  // namespace
}  // namespace leosim::ground
