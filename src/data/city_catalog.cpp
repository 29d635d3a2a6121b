#include "data/city_catalog.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "data/landmask.hpp"
#include "data/rng.hpp"
#include "geo/angles.hpp"
#include "geo/geodesic.hpp"

namespace leosim::data {

namespace {

// Minimum separation between synthesized cities and any existing city, km.
constexpr double kMinSeparationKm = 40.0;

// A great-circle distance is at least R * |latitude difference|, so a city
// further than this in latitude alone is far enough; the 1% margin dwarfs
// the haversine's rounding. Only the remaining cities get the haversine.
constexpr double kLatitudePrefilterKm = 1.01 * kMinSeparationKm;

bool TooCloseToExisting(const std::vector<City>& cities, const geo::GeodeticCoord& c) {
  const double lat_rad = geo::DegToRad(c.latitude_deg);
  return std::any_of(cities.begin(), cities.end(), [&](const City& existing) {
    const double dlat = std::fabs(geo::DegToRad(existing.latitude_deg) - lat_rad);
    return geo::kEarthRadiusKm * dlat <= kLatitudePrefilterKm &&
           geo::GreatCircleDistanceKm(existing.Coord(), c) < kMinSeparationKm;
  });
}

}  // namespace

std::vector<City> GenerateWorldCities(int count, uint64_t seed) {
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
        TooCloseToExisting(cities, spot)) {
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

}  // namespace leosim::data
