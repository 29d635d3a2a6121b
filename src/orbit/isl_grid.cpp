#include "orbit/isl_grid.hpp"

#include <algorithm>
#include <limits>

#include "geo/geodesic.hpp"

namespace leosim::orbit {

std::vector<IslEdge> PlusGridIsls(const Constellation& constellation, int shell_index) {
  const OrbitalShell& shell = constellation.shell(shell_index);
  const int planes = shell.num_planes;
  const int slots = shell.sats_per_plane;

  // The cross-plane ring closes only when the planes span the full 360
  // deg. Under a narrower (Walker-star) spread the last and first planes
  // counter-rotate across the seam, so a link there would sweep through
  // the Earth.
  const bool closed_ring = shell.raan_spread_deg >= 360.0;
  std::vector<IslEdge> edges;
  edges.reserve(static_cast<size_t>(2 * planes * slots));
  for (int plane = 0; plane < planes; ++plane) {
    for (int slot = 0; slot < slots; ++slot) {
      const int self = constellation.IndexOf({shell_index, plane, slot});
      // Intra-plane ring: next slot (wrapping).
      if (slots > 1) {
        const int next_slot = constellation.IndexOf({shell_index, plane, (slot + 1) % slots});
        edges.emplace_back(std::min(self, next_slot), std::max(self, next_slot));
      }
      // Cross-plane ring: same slot in the next plane (wrapping only on
      // a closed ring).
      if (planes > 1 && (closed_ring || plane + 1 < planes)) {
        const int next_plane =
            constellation.IndexOf({shell_index, (plane + 1) % planes, slot});
        edges.emplace_back(std::min(self, next_plane), std::max(self, next_plane));
      }
    }
  }
  // Rings of length 2 would produce each edge twice; dedupe for generality.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<IslEdge> PlusGridIslsAllShells(const Constellation& constellation) {
  std::vector<IslEdge> all;
  for (int shell = 0; shell < constellation.NumShells(); ++shell) {
    std::vector<IslEdge> shell_edges = PlusGridIsls(constellation, shell);
    all.insert(all.end(), shell_edges.begin(), shell_edges.end());
  }
  return all;
}

double MinIslAltitudeKm(const Constellation& constellation,
                        const std::vector<IslEdge>& edges,
                        const std::vector<double>& sample_times_sec) {
  double min_altitude = std::numeric_limits<double>::infinity();
  for (double t : sample_times_sec) {
    const std::vector<geo::Vec3> positions = constellation.PositionsEcef(t);
    for (const IslEdge& edge : edges) {
      min_altitude = std::min(
          min_altitude, geo::SegmentMinAltitudeKm(positions[edge.first], positions[edge.second]));
    }
  }
  return min_altitude;
}

double MaxIslLengthKm(const Constellation& constellation,
                      const std::vector<IslEdge>& edges,
                      const std::vector<double>& sample_times_sec) {
  double max_length = 0.0;
  for (double t : sample_times_sec) {
    const std::vector<geo::Vec3> positions = constellation.PositionsEcef(t);
    for (const IslEdge& edge : edges) {
      max_length = std::max(
          max_length, positions[edge.first].DistanceTo(positions[edge.second]));
    }
  }
  return max_length;
}

}  // namespace leosim::orbit
