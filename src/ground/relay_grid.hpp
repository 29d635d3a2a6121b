// Relay ground-terminal grid (paper §3): transit-only GTs placed every
// `spacing_deg` on the latitude-longitude grid, on land, within
// `radius_km` of at least one city. The paper uses 0.5 degrees and
// 2,000 km — "the highest density of GTs tested in prior work".
#pragma once

#include <vector>

#include "data/cities.hpp"
#include "geo/coordinates.hpp"

namespace leosim::ground {

struct RelayGridConfig {
  double spacing_deg{0.5};
  double radius_km{2000.0};
};

// Returns the relay GT positions. Implemented by rasterizing each city's
// coverage disc into the grid (not by scanning all grid cells against all
// cities), so cost is proportional to covered area. Throws
// std::invalid_argument unless spacing_deg is finite and > 0 and
// radius_km is finite and >= 0.
std::vector<geo::GeodeticCoord> BuildRelayGrid(const std::vector<data::City>& cities,
                                               const RelayGridConfig& config = {});

}  // namespace leosim::ground
