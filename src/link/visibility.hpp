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
#include "geo/soa.hpp"
#include "geo/vec3.hpp"

namespace leosim::link {

// True when `sat_ecef` is visible from `ground_ecef` at or above
// `min_elevation_deg`.
bool IsVisible(const geo::Vec3& ground_ecef, const geo::Vec3& sat_ecef,
               double min_elevation_deg);

// The hoisted per-query constant of the sine-form elevation test:
// sin(min_el) * |ground|. Identical to the value every scalar visibility
// check computes internally; exposed for the batch kernel below.
double ElevationSinThreshold(const geo::Vec3& ground_ecef,
                             double min_elevation_deg);

// Batch sine-form elevation test over a candidate list: applies exactly
// the scalar test's arithmetic chain to each candidate id in order,
// compacting passing ids into `out_sats` and each passing candidate's
// slant range |sat - ground| (km) into `out_ranges`. Both output arrays
// need capacity for `num_candidates` entries; `out_sats` may alias
// `candidates` (in-place compaction). Returns the passing count. The
// range output is bit-identical to ground.DistanceTo(sat), so callers
// derive link latency without recomputing the norm.
size_t ElevationTestBatch(const geo::Vec3& ground_ecef, double threshold,
                          const geo::Vec3* sat_ecef, const int* candidates,
                          size_t num_candidates, int* out_sats,
                          double* out_ranges);

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

  // As Rebuild, reading positions straight from the propagation SoA block
  // (same binning chain in the same satellite order, so the resulting
  // index is identical to packing first and calling the Vec3 overload).
  void Rebuild(const geo::Soa3& sat_soa, double coverage_radius_km);

  // Satellites visible from the terminal at `ground_ecef` at or above
  // `min_elevation_deg`, ascending by satellite id. Exact (the cell scan
  // over-approximates, then each candidate is elevation-checked).
  std::vector<int> Visible(const geo::Vec3& ground_ecef,
                           double min_elevation_deg) const;

  // As Visible, replacing `*out`'s contents (capacity is reused).
  void VisibleInto(const geo::Vec3& ground_ecef, double min_elevation_deg,
                   std::vector<int>* out) const;

  // Visibility fused with slant-range output for the snapshot builder:
  // gathers the cap's cell-scan candidates, then runs ElevationTestBatch
  // over them, leaving passing satellites in `*out` and their ranges
  // |sat - ground| (km) in `*ranges` (parallel arrays). The visible SET
  // matches VisibleInto exactly, but in deterministic cell-scan order
  // rather than ascending by id — the builder's satellite-major counting
  // sort is insensitive to per-terminal candidate order (stability keys
  // on the caller's terminal loop), and skipping the per-query sort keeps
  // the query linear in the candidate count.
  void VisibleWithRangeInto(const geo::Vec3& ground_ecef,
                            double min_elevation_deg, std::vector<int>* out,
                            std::vector<double>* ranges) const;

 private:
  // Shared tail of both Rebuild overloads: bins the already-copied
  // sat_ecef_ snapshot into the CSR cell buckets.
  void RebuildCells(double coverage_radius_km);

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
