// Relay ground-terminal grid (paper §3): transit-only GTs placed every
// `spacing_deg` on the latitude-longitude grid, on land, within
// kRelayRadiusKm of at least one city. The paper uses 0.5 degrees and
// 2,000 km — "the highest density of GTs tested in prior work".
#pragma once

#include <vector>

#include "data/cities.hpp"
#include "geo/coordinates.hpp"

namespace leosim::ground {

// How far from a city a relay may stand (paper §3).
inline constexpr double kRelayRadiusKm = 2000.0;

struct RelayGridConfig {
  double spacing_deg{0.5};
};

// Returns the relay GT positions. Each city's coverage disc is rasterized
// row by row into per-row cell bitmaps: a cell already marked by an
// earlier city is skipped, cells well inside or outside the disc are
// decided without trigonometry, and only a band at each edge of the disc
// runs the haversine (geo::GreatCircleDistanceKm's exact expression, so
// the cell set is the same as testing every cell). Land is then tested one
// row at a time (data::LandMask::AtLatitude), only on rows a disc reached.
//
// The order of the result is part of the contract: it is the iteration
// order of a std::unordered_set<int64_t> given the cell keys
// (lat index * lon cells + lon index) in the order cities first cover
// them. Relay ids, and through them Dijkstra tie-breaks and trace bytes,
// follow this order (DESIGN.md §7 "Relay grid").
//
// Throws std::invalid_argument unless spacing_deg is finite and > 0.
std::vector<geo::GeodeticCoord> BuildRelayGrid(const std::vector<data::City>& cities,
                                               const RelayGridConfig& config = {});

}  // namespace leosim::ground
