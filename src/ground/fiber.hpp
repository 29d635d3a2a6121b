// Fiber-augmentation groups (paper §8, Fig. 11): a congested metro plus
// nearby smaller cities reachable over terrestrial fiber, whose
// ground-satellite capacity the metro can borrow ("distributed GTs").
#pragma once

#include <vector>

#include "data/cities.hpp"

namespace leosim::ground {

// Fig. 11's group (paper §8): Paris lends its load to the five most
// populous cities within 250 km of it.
inline constexpr const char* kFiberMetro = "Paris";
inline constexpr double kFiberRadiusKm = 250.0;
inline constexpr int kFiberMaxMembers = 5;

struct FiberGroup {
  data::City metro;
  std::vector<data::City> satellites_cities;  // nearby smaller cities
};

// Latency of a fiber path of the given geodesic length. Fiber refractive
// index ~1.47 and ~20% route stretch over the geodesic.
double FiberLatencyMs(double geodesic_km);

// Builds the kFiberMetro group: the up-to kFiberMaxMembers most populous
// cities within kFiberRadiusKm of the metro (excluding the metro), drawn
// from `cities`.
FiberGroup BuildFiberGroup(const std::vector<data::City>& cities);

}  // namespace leosim::ground
