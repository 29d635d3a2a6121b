#include "core/traffic_matrix.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "data/rng.hpp"
#include "geo/geodesic.hpp"

namespace leosim::core {

void TrafficMatrixOptions::Validate() const {
  if (num_pairs < 0) {
    throw std::invalid_argument("traffic matrix: need num_pairs >= 0");
  }
}

namespace {

// Shared rejection-sampling core; `draw_endpoint` picks one city index.
template <typename EndpointDrawer>
std::vector<CityPair> SamplePairs(const std::vector<data::City>& cities,
                                  const TrafficMatrixOptions& options,
                                  EndpointDrawer&& draw_endpoint) {
  const int n = static_cast<int>(cities.size());
  if (n < 2) {
    throw std::invalid_argument("need at least two cities");
  }
  // Checked up front: the attempt budget below scales with the request,
  // so an unsatisfiable one would otherwise spin for a long time first.
  if (static_cast<int64_t>(options.num_pairs) >
      static_cast<int64_t>(n) * (n - 1) / 2) {
    throw std::invalid_argument(
        "requested more city pairs than the city list has distinct pairs");
  }
  std::set<std::pair<int, int>> seen;
  std::vector<CityPair> pairs;
  pairs.reserve(static_cast<size_t>(options.num_pairs));

  // Rejection sampling with a generous attempt budget; if the city list is
  // too small to supply the requested pairs we fail loudly.
  const int64_t max_attempts =
      static_cast<int64_t>(options.num_pairs) * 1000 + 100000;
  int64_t attempts = 0;
  while (static_cast<int>(pairs.size()) < options.num_pairs) {
    if (++attempts > max_attempts) {
      throw std::invalid_argument(
          "city list cannot supply the requested number of qualifying pairs");
    }
    int a = draw_endpoint();
    int b = draw_endpoint();
    if (a == b) {
      continue;
    }
    if (a > b) {
      std::swap(a, b);
    }
    if (seen.contains({a, b})) {
      continue;
    }
    if (geo::GreatCircleDistanceKm(cities[static_cast<size_t>(a)].Coord(),
                                   cities[static_cast<size_t>(b)].Coord()) <=
        kMinPairDistanceKm) {
      continue;
    }
    seen.insert({a, b});
    pairs.push_back({a, b});
  }
  return pairs;
}

}  // namespace

std::vector<CityPair> SampleCityPairs(const std::vector<data::City>& cities,
                                      const TrafficMatrixOptions& options) {
  options.Validate();
  data::SplitMix64 rng(options.seed);
  const int n = static_cast<int>(cities.size());
  return SamplePairs(cities, options, [&rng, n] { return rng.NextInt(n); });
}

std::vector<CityPair> SampleCityPairsGravity(const std::vector<data::City>& cities,
                                             const TrafficMatrixOptions& options) {
  options.Validate();
  data::SplitMix64 rng(options.seed);
  std::vector<double> cumulative;
  cumulative.reserve(cities.size());
  double total = 0.0;
  for (const data::City& c : cities) {
    total += c.population_k;
    cumulative.push_back(total);
  }
  if (total <= 0.0) {
    throw std::invalid_argument("gravity sampling needs positive populations");
  }
  return SamplePairs(cities, options, [&] {
    const double pick = rng.Uniform(0.0, total);
    return static_cast<int>(
        std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
        cumulative.begin());
  });
}

}  // namespace leosim::core
