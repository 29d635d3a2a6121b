// Traffic matrix (paper §3): city pairs separated by more than 2,000 km
// along the geodesic, sampled uniformly at random from the city list.
#pragma once

#include <cstdint>
#include <vector>

#include "data/cities.hpp"

namespace leosim::core {

// Both samplers keep only pairs more than this far apart (paper §3).
inline constexpr double kMinPairDistanceKm = 2000.0;

struct CityPair {
  int a{0};  // indices into the city vector the pair was sampled from
  int b{0};

  constexpr bool operator==(const CityPair&) const = default;
};

struct TrafficMatrixOptions {
  int num_pairs{5000};
  uint64_t seed{20201104};  // HotNets'20 presentation date

  // Throws std::invalid_argument for a negative num_pairs. Both samplers
  // call it.
  void Validate() const;
};

// Samples distinct pairs (a < b, no duplicates). Throws
// std::invalid_argument if the city list cannot supply the requested
// number of qualifying pairs.
std::vector<CityPair> SampleCityPairs(const std::vector<data::City>& cities,
                                      const TrafficMatrixOptions& options);

// Gravity-model variant: endpoints are drawn with probability proportional
// to city population, so mega-metro pairs dominate — a demand-realistic
// alternative to the paper's uniform sampling (used by the weighted-
// fairness extension).
std::vector<CityPair> SampleCityPairsGravity(const std::vector<data::City>& cities,
                                             const TrafficMatrixOptions& options);

}  // namespace leosim::core
