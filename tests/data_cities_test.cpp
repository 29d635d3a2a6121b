#include "data/cities.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "data/city_catalog.hpp"
#include "data/landmask.hpp"
#include "data/rng.hpp"
#include "geo/geodesic.hpp"

namespace leosim::data {
namespace {

// The city synthesizer as it was before the latitude prefilter, kept
// verbatim as the reference the fast one must match field for field.
constexpr double kReferenceMinSeparationKm = 40.0;

bool ReferenceTooCloseToExisting(const std::vector<City>& cities,
                                 const geo::GeodeticCoord& c) {
  return std::any_of(cities.begin(), cities.end(), [&](const City& existing) {
    return geo::GreatCircleDistanceKm(existing.Coord(), c) < kReferenceMinSeparationKm;
  });
}

std::vector<City> ReferenceGenerateWorldCities(int count, uint64_t seed) {
  const std::vector<City>& anchors = AnchorCities();
  std::vector<City> cities = anchors;
  std::sort(cities.begin(), cities.end(),
            [](const City& a, const City& b) { return a.population_k > b.population_k; });
  if (count <= static_cast<int>(cities.size())) {
    cities.resize(count);
    return cities;
  }

  // Cumulative population weights over the anchors for weighted sampling.
  std::vector<double> cumulative;
  cumulative.reserve(anchors.size());
  double total = 0.0;
  for (const City& a : anchors) {
    total += a.population_k;
    cumulative.push_back(total);
  }

  const LandMask& mask = LandMask::Instance();
  SplitMix64 rng(seed);
  int synth_index = 0;
  while (static_cast<int>(cities.size()) < count) {
    const double pick = rng.Uniform(0.0, total);
    const size_t anchor_idx =
        std::lower_bound(cumulative.begin(), cumulative.end(), pick) - cumulative.begin();
    const City& anchor = anchors[anchor_idx];

    const double bearing = rng.Uniform(0.0, 360.0);
    const double distance = rng.Uniform(60.0, 600.0);
    const geo::GeodeticCoord spot =
        geo::DestinationPoint(anchor.Coord(), bearing, distance);
    if (!mask.IsLand(spot.latitude_deg, spot.longitude_deg) ||
        ReferenceTooCloseToExisting(cities, spot)) {
      continue;  // rejected; resample
    }
    City c;
    c.name = anchor.name + "-satellite-" + std::to_string(++synth_index);
    c.latitude_deg = spot.latitude_deg;
    c.longitude_deg = spot.longitude_deg;
    c.population_k = anchor.population_k * rng.Uniform(0.04, 0.25);
    cities.push_back(c);
  }
  return cities;
}

TEST(CitiesTest, AnchorListIsLarge) {
  EXPECT_GE(AnchorCities().size(), 250u);
}

TEST(CitiesTest, AllCoordinatesValid) {
  for (const City& c : AnchorCities()) {
    EXPECT_GE(c.latitude_deg, -90.0) << c.name;
    EXPECT_LE(c.latitude_deg, 90.0) << c.name;
    EXPECT_GE(c.longitude_deg, -180.0) << c.name;
    EXPECT_LE(c.longitude_deg, 180.0) << c.name;
    EXPECT_GT(c.population_k, 0.0) << c.name;
    EXPECT_FALSE(c.name.empty());
  }
}

TEST(CitiesTest, NoDuplicateNames) {
  std::set<std::string> names;
  for (const City& c : AnchorCities()) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate: " << c.name;
  }
}

TEST(CitiesTest, PaperCitiesPresent) {
  // Every city the paper names must exist with real coordinates.
  for (const char* name :
       {"Maceio", "Durban", "Delhi", "Sydney", "Brisbane", "Tokyo", "Paris",
        "London", "New York"}) {
    EXPECT_NO_THROW(FindCity(name)) << name;
  }
}

TEST(CitiesTest, PaperCityCoordinatesAccurate) {
  EXPECT_NEAR(FindCity("Maceio").latitude_deg, -9.67, 0.2);
  EXPECT_NEAR(FindCity("Maceio").longitude_deg, -35.74, 0.2);
  EXPECT_NEAR(FindCity("Durban").latitude_deg, -29.86, 0.2);
  EXPECT_NEAR(FindCity("Delhi").longitude_deg, 77.21, 0.2);
  EXPECT_NEAR(FindCity("Sydney").latitude_deg, -33.87, 0.2);
}

TEST(CitiesTest, DelhiSydneyDistanceSane) {
  // Real-world geodesic distance is ~10,420 km.
  const double d = geo::GreatCircleDistanceKm(FindCity("Delhi").Coord(),
                                              FindCity("Sydney").Coord());
  EXPECT_NEAR(d, 10420.0, 150.0);
}

TEST(CitiesTest, FindUnknownCityThrows) {
  EXPECT_THROW(FindCity("Atlantis"), std::out_of_range);
}

TEST(CitiesTest, ParisFiberNeighboursPresent) {
  // Fig. 11 uses Paris plus nearby smaller cities.
  for (const char* name : {"Rouen", "Orleans", "Reims", "Amiens", "Tours"}) {
    ASSERT_NO_THROW(FindCity(name)) << name;
    EXPECT_LT(geo::GreatCircleDistanceKm(FindCity("Paris").Coord(),
                                         FindCity(name).Coord()),
              250.0)
        << name;
  }
}

TEST(CityCatalogTest, TruncatesToMostPopulous) {
  const std::vector<City> top10 = GenerateWorldCities(10);
  ASSERT_EQ(top10.size(), 10u);
  for (size_t i = 1; i < top10.size(); ++i) {
    EXPECT_GE(top10[i - 1].population_k, top10[i].population_k);
  }
  EXPECT_EQ(top10[0].name, "Tokyo");
}

TEST(CityCatalogTest, MatchesReferenceFieldForField) {
  for (const uint64_t seed : {1, 2, 3}) {
    const std::vector<City> want = ReferenceGenerateWorldCities(1000, seed);
    const std::vector<City> got = GenerateWorldCities(1000, seed);
    ASSERT_EQ(got.size(), want.size()) << seed;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].name, want[i].name) << seed << " at " << i;
      ASSERT_EQ(got[i].latitude_deg, want[i].latitude_deg) << seed << " at " << i;
      ASSERT_EQ(got[i].longitude_deg, want[i].longitude_deg) << seed << " at " << i;
      ASSERT_EQ(got[i].population_k, want[i].population_k) << seed << " at " << i;
    }
  }
}

TEST(CityCatalogTest, GeneratesRequestedCount) {
  const std::vector<City> cities = GenerateWorldCities(400);
  EXPECT_EQ(cities.size(), 400u);
}

TEST(CityCatalogTest, Deterministic) {
  const std::vector<City> a = GenerateWorldCities(350, 7);
  const std::vector<City> b = GenerateWorldCities(350, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].latitude_deg, b[i].latitude_deg);
  }
}

TEST(CityCatalogTest, DifferentSeedsDiffer) {
  const int count = static_cast<int>(AnchorCities().size()) + 20;
  const std::vector<City> a = GenerateWorldCities(count, 1);
  const std::vector<City> b = GenerateWorldCities(count, 2);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].latitude_deg != b[i].latitude_deg) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(CityCatalogTest, SynthesizedCitiesOnLand) {
  const std::vector<City> cities = GenerateWorldCities(450);
  const LandMask& mask = LandMask::Instance();
  for (size_t i = AnchorCities().size(); i < cities.size(); ++i) {
    EXPECT_TRUE(mask.IsLand(cities[i].latitude_deg, cities[i].longitude_deg))
        << cities[i].name;
  }
}

TEST(CityCatalogTest, SynthesizedCitiesWellSeparated) {
  const std::vector<City> cities = GenerateWorldCities(350);
  for (size_t i = AnchorCities().size(); i < cities.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_GT(geo::GreatCircleDistanceKm(cities[i].Coord(), cities[j].Coord()),
                39.9)
          << cities[i].name << " vs " << cities[j].name;
    }
  }
}

}  // namespace
}  // namespace leosim::data
