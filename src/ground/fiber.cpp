#include "ground/fiber.hpp"

#include <algorithm>

#include "geo/coordinates.hpp"
#include "geo/geodesic.hpp"

namespace leosim::ground {

double FiberLatencyMs(double geodesic_km) {
  constexpr double kRefractiveIndex = 1.47;
  constexpr double kRouteStretch = 1.2;
  const double path_km = geodesic_km * kRouteStretch;
  return path_km * kRefractiveIndex / geo::kSpeedOfLightKmPerSec * 1000.0;
}

FiberGroup BuildFiberGroup(const std::vector<data::City>& cities) {
  FiberGroup group;
  group.metro = data::FindCity(kFiberMetro);
  std::vector<data::City> nearby;
  for (const data::City& c : cities) {
    if (c.name == group.metro.name) {
      continue;
    }
    const double d = geo::GreatCircleDistanceKm(group.metro.Coord(), c.Coord());
    if (d <= kFiberRadiusKm) {
      nearby.push_back(c);
    }
  }
  std::sort(nearby.begin(), nearby.end(), [](const data::City& a, const data::City& b) {
    return a.population_k > b.population_k;
  });
  if (static_cast<int>(nearby.size()) > kFiberMaxMembers) {
    nearby.resize(kFiberMaxMembers);
  }
  group.satellites_cities = std::move(nearby);
  return group;
}

}  // namespace leosim::ground
