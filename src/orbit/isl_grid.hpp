// +Grid inter-satellite link topology (paper §2): each satellite connects
// to its 2 neighbours in the same orbital plane and to the same-slot
// satellite in the 2 adjacent planes. These four laser links are long-lived
// because the partners travel with nearly constant relative geometry.
#pragma once

#include <utility>
#include <vector>

#include "orbit/walker.hpp"

namespace leosim::orbit {

// An undirected ISL between two satellites, by flat constellation index.
using IslEdge = std::pair<int, int>;

// Builds the +Grid ISL set for one shell of the constellation. Each edge
// appears once with first < second. For a P x S shell with a 360 deg
// RAAN spread this yields exactly 2 * P * S edges (both rings wrap
// around). Under a narrower (Walker-star) spread the cross-plane ring
// stays open at the seam between the last and first planes, whose
// satellites counter-rotate: 2 * P * S - S edges.
std::vector<IslEdge> PlusGridIsls(const Constellation& constellation, int shell_index);

// Builds +Grid ISLs for every shell (no cross-shell links; the paper notes
// cross-shell ISLs are impractical, which is what motivates the Fig. 10
// BP-augmentation experiment).
std::vector<IslEdge> PlusGridIslsAllShells(const Constellation& constellation);

// Minimum altitude (km above the surface) reached by any ISL in `edges`
// over the sampled times. ISLs must stay above the lower atmosphere
// (~80 km) to be weather-immune; the paper's constellations easily satisfy
// this, and this function lets tests verify it.
double MinIslAltitudeKm(const Constellation& constellation,
                        const std::vector<IslEdge>& edges,
                        const std::vector<double>& sample_times_sec);

// Longest ISL (km) over the sampled times; useful for laser link budgets.
double MaxIslLengthKm(const Constellation& constellation,
                      const std::vector<IslEdge>& edges,
                      const std::vector<double>& sample_times_sec);

}  // namespace leosim::orbit
