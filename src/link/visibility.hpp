// Ground-terminal <-> satellite visibility.
//
// A terminal sees a satellite when the elevation angle exceeds the
// constellation's minimum (paper §2: 25 deg for Starlink, 30 deg for
// Kuiper). SatelliteIndex is a latitude/longitude cell hash over
// sub-satellite points that turns the per-snapshot "which satellites can
// this GT see" query from O(#sats) into O(#candidates in nearby cells).
//
// The index is rebuildable in place (Rebuild) and queryable into a
// caller-owned buffer (VisibleInto), so the snapshot pipeline can reuse
// one index and one candidate buffer across timesteps with zero steady-
// state allocation. Buckets are stored CSR-style (one flat satellite
// array plus per-cell offsets) rather than vector-of-vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/coordinates.hpp"
#include "geo/vec3.hpp"

namespace leosim::link {

// Brute-force visible set; mostly for tests and small inputs.
std::vector<int> VisibleSatellitesBruteForce(const geo::Vec3& ground_ecef,
                                             const std::vector<geo::Vec3>& sat_ecef,
                                             double min_elevation_deg);

class SatelliteIndex {
 public:
  // An empty index; call Rebuild before querying.
  SatelliteIndex() = default;

  // Builds an index over one snapshot of satellite positions (ECEF, km).
  // `coverage_radius_km` bounds the ground distance at which any terminal
  // could see a satellite (geo::CoverageRadiusKm of the highest shell).
  SatelliteIndex(const std::vector<geo::Vec3>& sat_ecef, double coverage_radius_km);

  // Re-indexes a new snapshot in place, recycling every internal buffer
  // (no allocation once capacities have warmed up).
  void Rebuild(const std::vector<geo::Vec3>& sat_ecef, double coverage_radius_km);

  // Satellites visible from the terminal at `ground_ecef` at or above
  // `min_elevation_deg`, ascending by satellite id. Exact (the cell scan
  // over-approximates, then each candidate is elevation-checked).
  std::vector<int> Visible(const geo::Vec3& ground_ecef,
                           double min_elevation_deg) const;

  // As Visible, replacing `*out`'s contents (capacity is reused).
  void VisibleInto(const geo::Vec3& ground_ecef, double min_elevation_deg,
                   std::vector<int>* out) const;

  // As VisibleInto, also writing each visible satellite's slant range
  // |sat - ground| (km) into `*ranges` (parallel to `*out`). The visible
  // SET matches VisibleInto exactly, but in deterministic cell-scan order
  // rather than ascending by id — the snapshot builder's satellite-major
  // counting sort is insensitive to per-terminal candidate order
  // (stability keys on the caller's terminal loop), so it skips the sort.
  void VisibleWithRangeInto(const geo::Vec3& ground_ecef,
                            double min_elevation_deg, std::vector<int>* out,
                            std::vector<double>* ranges) const;

 private:
  // Appends to `*out` every satellite binned in the cells of the coverage
  // cap's bounding box around the terminal (a superset of the visible
  // set; each satellite lives in exactly one cell, so no duplicates).
  void GatherCandidates(const geo::Vec3& ground_ecef, std::vector<int>* out) const;

  std::vector<geo::Vec3> sat_ecef_;  // copied; the index owns its snapshot
  double cell_deg_{1.0};
  int lat_cells_{0};
  int lon_cells_{0};
  double radius_deg_{0.0};
  double sin_radius_{0.0};  // sin(radius_deg_), for the per-query lon span
  int lat_span_{0};         // cell rows within radius_deg_ of the centre row
  // CSR buckets: satellites of cell c are cell_sats_[cell_offsets_[c] ..
  // cell_offsets_[c + 1]), ascending by id.
  std::vector<int32_t> cell_offsets_;
  std::vector<int32_t> cell_sats_;
  std::vector<int32_t> cell_of_sat_;  // scratch reused across Rebuilds
};

}  // namespace leosim::link
