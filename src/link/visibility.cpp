#include "link/visibility.hpp"

#include <algorithm>
#include <cmath>

#include "geo/angles.hpp"
#include "geo/geodesic.hpp"

namespace leosim::link {

namespace {

// Spherical latitude/longitude (degrees) straight from the ECEF vector —
// the binning-only subset of geo::EcefToGeodetic, with no GeodeticCoord
// struct, altitude, or longitude wrapping beyond what atan2 provides.
// atan2 already lands in [-180, 180], matching WrapLongitudeDeg for every
// input except the measure-zero +180 boundary, where the clamp below
// absorbs the difference.
struct LatLonDeg {
  double lat;
  double lon;
};

LatLonDeg SphericalLatLonDeg(const geo::Vec3& ecef) {
  const double r = ecef.Norm();
  if (r == 0.0) {
    return {0.0, 0.0};
  }
  return {geo::RadToDeg(std::asin(ecef.z / r)),
          geo::RadToDeg(std::atan2(ecef.y, ecef.x))};
}

// The elevation test in threshold form: el >= min_el on [-90, 90] iff
// sin(el) >= sin(min_el), and sin(el) = dot(ground, sat - ground) /
// (|ground| |sat - ground|), so the comparison needs one sqrt and no
// inverse trig per candidate. `threshold` is sin(min_el) * |ground|,
// hoisted per query — every caller (brute force and the index)
// evaluates the identical expression so their visible sets agree exactly.
double SinThreshold(const geo::Vec3& ground_ecef, double min_elevation_deg) {
  return std::sin(geo::DegToRad(min_elevation_deg)) * ground_ecef.Norm();
}

bool AboveSinThreshold(const geo::Vec3& ground_ecef, const geo::Vec3& sat_ecef,
                       double threshold) {
  const geo::Vec3 to_sat = sat_ecef - ground_ecef;
  // A coincident satellite (to_sat == 0) compares 0 >= 0: visible, the
  // overhead case.
  return ground_ecef.Dot(to_sat) >= threshold * to_sat.Norm();
}

// The elevation test over a candidate list: applies exactly the
// AboveSinThreshold chain to each candidate id in order, compacting
// passing ids into `out_sats` (which may alias `candidates`) and, when
// `out_ranges` is not null, each passing candidate's slant range
// |sat - ground| (km) into it. Returns the passing count.
size_t ElevationTestBatch(const geo::Vec3& ground_ecef, double threshold,
                          const geo::Vec3* sat_ecef, const int* candidates,
                          size_t num_candidates, int* out_sats,
                          double* out_ranges) {
  const double gx = ground_ecef.x;
  const double gy = ground_ecef.y;
  const double gz = ground_ecef.z;
  size_t n_out = 0;
  for (size_t k = 0; k < num_candidates; ++k) {
    const int sat = candidates[k];
    const geo::Vec3& p = sat_ecef[static_cast<size_t>(sat)];
    // Verbatim AboveSinThreshold chain (to_sat = sat - ground, then the
    // dot/norm comparison), written on raw doubles with the same
    // association order as Vec3::Dot/Norm so every candidate's verdict —
    // and the range of every passing one — matches the scalar path
    // bit-for-bit. Branchless compaction: the write always happens, the
    // cursor only advances on a pass (writes are at n_out <= k, so
    // aliasing out_sats with candidates is safe).
    const double dx = p.x - gx;
    const double dy = p.y - gy;
    const double dz = p.z - gz;
    const double dot = gx * dx + gy * dy + gz * dz;
    const double dn = std::sqrt(dx * dx + dy * dy + dz * dz);
    out_sats[n_out] = sat;
    if (out_ranges != nullptr) {
      out_ranges[n_out] = dn;
    }
    n_out += (dot >= threshold * dn) ? 1 : 0;
  }
  return n_out;
}

}  // namespace

std::vector<int> VisibleSatellitesBruteForce(const geo::Vec3& ground_ecef,
                                             const std::vector<geo::Vec3>& sat_ecef,
                                             double min_elevation_deg) {
  std::vector<int> visible;
  const double threshold = SinThreshold(ground_ecef, min_elevation_deg);
  for (size_t i = 0; i < sat_ecef.size(); ++i) {
    if (AboveSinThreshold(ground_ecef, sat_ecef[i], threshold)) {
      visible.push_back(static_cast<int>(i));
    }
  }
  return visible;
}

SatelliteIndex::SatelliteIndex(const std::vector<geo::Vec3>& sat_ecef,
                               double coverage_radius_km) {
  Rebuild(sat_ecef, coverage_radius_km);
}

void SatelliteIndex::Rebuild(const std::vector<geo::Vec3>& sat_ecef,
                             double coverage_radius_km) {
  sat_ecef_.assign(sat_ecef.begin(), sat_ecef.end());
  radius_deg_ = geo::RadToDeg(coverage_radius_km / geo::kEarthRadiusKm);
  sin_radius_ = std::sin(geo::DegToRad(radius_deg_));
  // Half-radius cells: the scanned cell block is the coverage cap's
  // bounding box rounded out to cell edges, so smaller cells hug the
  // circle tighter (fewer false candidates) at the cost of more cell
  // visits. radius/2 is the measured sweet spot for LEO shell densities.
  cell_deg_ = std::clamp(radius_deg_ / 2.0, 1.0, 30.0);
  // A satellite within radius_deg_ of the terminal is at most
  // ceil(radius/cell) rows away from the terminal's row (floor binning).
  lat_span_ = static_cast<int>(std::ceil(radius_deg_ / cell_deg_));
  lat_cells_ = static_cast<int>(std::ceil(180.0 / cell_deg_));
  lon_cells_ = static_cast<int>(std::ceil(360.0 / cell_deg_));
  const size_t num_cells = static_cast<size_t>(lat_cells_) * lon_cells_;

  // Two-pass CSR bucket build: assign each satellite a cell, count per
  // cell, prefix-sum, fill. Filling in satellite order keeps each bucket
  // ascending by id.
  cell_of_sat_.resize(sat_ecef_.size());
  cell_offsets_.assign(num_cells + 1, 0);
  for (size_t i = 0; i < sat_ecef_.size(); ++i) {
    const LatLonDeg sub = SphericalLatLonDeg(sat_ecef_[i]);
    const int li =
        std::clamp(static_cast<int>((sub.lat + 90.0) / cell_deg_), 0, lat_cells_ - 1);
    const int wi =
        std::clamp(static_cast<int>((sub.lon + 180.0) / cell_deg_), 0, lon_cells_ - 1);
    const int32_t cell = static_cast<int32_t>(li) * lon_cells_ + wi;
    cell_of_sat_[i] = cell;
    ++cell_offsets_[static_cast<size_t>(cell) + 1];
  }
  for (size_t c = 1; c < cell_offsets_.size(); ++c) {
    cell_offsets_[c] += cell_offsets_[c - 1];
  }
  cell_sats_.resize(sat_ecef_.size());
  // cell_offsets_[c] doubles as the fill cursor for cell c, then is
  // restored by the shift-back pass.
  for (size_t i = 0; i < sat_ecef_.size(); ++i) {
    cell_sats_[static_cast<size_t>(cell_offsets_[static_cast<size_t>(
        cell_of_sat_[i])]++)] = static_cast<int32_t>(i);
  }
  for (size_t c = cell_offsets_.size() - 1; c > 0; --c) {
    cell_offsets_[c] = cell_offsets_[c - 1];
  }
  cell_offsets_[0] = 0;
}

std::vector<int> SatelliteIndex::Visible(const geo::Vec3& ground_ecef,
                                         double min_elevation_deg) const {
  std::vector<int> visible;
  VisibleInto(ground_ecef, min_elevation_deg, &visible);
  return visible;
}

void SatelliteIndex::GatherCandidates(const geo::Vec3& ground_ecef,
                                      std::vector<int>* out) const {
  if (sat_ecef_.empty()) {
    return;
  }
  const LatLonDeg g = SphericalLatLonDeg(ground_ecef);
  const int centre_li =
      std::clamp(static_cast<int>((g.lat + 90.0) / cell_deg_), 0, lat_cells_ - 1);
  // Longitude half-width of the coverage cap's bounding box: a spherical
  // cap of angular radius r centred at latitude lat spans at most
  // asin(sin r / cos lat) of longitude (its widest point sits poleward
  // of the centre, so one query-level bound covers every row). When the
  // cap reaches a pole (sin r >= cos lat) take the whole ring.
  const double cos_lat = std::cos(geo::DegToRad(g.lat));
  int lon_span;
  if (sin_radius_ >= cos_lat) {
    lon_span = lon_cells_;
  } else {
    const double lon_radius_deg = geo::RadToDeg(std::asin(sin_radius_ / cos_lat));
    lon_span = static_cast<int>(std::ceil(lon_radius_deg / cell_deg_));
  }
  const int centre_wi = static_cast<int>((g.lon + 180.0) / cell_deg_);
  int lo = centre_wi - lon_span;
  int hi = centre_wi + lon_span;
  if (hi - lo + 1 >= lon_cells_) {
    // The box covers the whole ring: scan each cell once, from 0.
    lo = 0;
    hi = lon_cells_ - 1;
  }
  for (int li = std::max(centre_li - lat_span_, 0);
       li <= std::min(centre_li + lat_span_, lat_cells_ - 1); ++li) {
    const int row_base = li * lon_cells_;
    for (int raw = lo; raw <= hi; ++raw) {
      const size_t cell =
          static_cast<size_t>(row_base + ((raw % lon_cells_) + lon_cells_) % lon_cells_);
      out->insert(out->end(), cell_sats_.begin() + cell_offsets_[cell],
                  cell_sats_.begin() + cell_offsets_[cell + 1]);
    }
  }
}

void SatelliteIndex::VisibleInto(const geo::Vec3& ground_ecef,
                                 double min_elevation_deg,
                                 std::vector<int>* out) const {
  out->clear();
  GatherCandidates(ground_ecef, out);
  const size_t visible = ElevationTestBatch(
      ground_ecef, SinThreshold(ground_ecef, min_elevation_deg), sat_ecef_.data(),
      out->data(), out->size(), out->data(), nullptr);
  out->resize(visible);
  std::sort(out->begin(), out->end());
}

void SatelliteIndex::VisibleWithRangeInto(const geo::Vec3& ground_ecef,
                                          double min_elevation_deg,
                                          std::vector<int>* out,
                                          std::vector<double>* ranges) const {
  out->clear();
  GatherCandidates(ground_ecef, out);
  ranges->resize(out->size());
  const size_t visible = ElevationTestBatch(
      ground_ecef, SinThreshold(ground_ecef, min_elevation_deg), sat_ecef_.data(),
      out->data(), out->size(), out->data(), ranges->data());
  out->resize(visible);
  ranges->resize(visible);
}

}  // namespace leosim::link
