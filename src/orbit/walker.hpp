// Walker-delta orbital shells and multi-shell constellations.
//
// A shell is a set of "parallel" circular orbital planes sharing one
// altitude and inclination, with ascending nodes spread uniformly in RAAN
// and satellites spread uniformly within each plane (paper §2). Starlink's
// first shell is 72 planes x 22 satellites at 550 km / 53 deg; Kuiper's is
// 34 x 34 at 630 km / 51.9 deg.
#pragma once

#include <string>
#include <vector>

#include "geo/vec3.hpp"
#include "orbit/propagator.hpp"

namespace leosim::orbit {

struct OrbitalShell {
  std::string name;
  int num_planes{1};
  int sats_per_plane{1};
  double altitude_km{550.0};
  double inclination_deg{53.0};
  // Walker phase factor F: satellites in adjacent planes are offset by
  // F * 360 / (num_planes * sats_per_plane) degrees of argument of latitude.
  double phase_factor{1.0};
  // RAAN spread of the shell; 360 for a delta (full-spread) pattern.
  double raan_spread_deg{360.0};
  // Initial RAAN of plane 0 (lets multiple shells be de-phased).
  double raan_offset_deg{0.0};

  int TotalSatellites() const { return num_planes * sats_per_plane; }
  bool operator==(const OrbitalShell&) const = default;
};

// Identifies one satellite within a multi-shell constellation.
struct SatelliteId {
  int shell{0};
  int plane{0};
  int slot{0};

  constexpr bool operator==(const SatelliteId&) const = default;
};

// A multi-shell constellation with a flat satellite index space. Satellite
// indices are contiguous: shell 0's satellites first (plane-major order),
// then shell 1's, and so on.
class Constellation {
 public:
  Constellation() = default;

  // Convenience: a single-shell constellation.
  static Constellation WalkerDelta(const OrbitalShell& shell);

  // A constellation from explicit orbital elements (e.g. parsed TLEs).
  // `metadata` describes the set for bookkeeping; its plane/slot counts
  // must multiply to elements.size().
  static Constellation FromElements(const OrbitalShell& metadata,
                                    const std::vector<CircularOrbitElements>& elements);

  // Appends a shell; returns the index of the first satellite of the shell.
  int AddShell(const OrbitalShell& shell);

  int NumShells() const { return static_cast<int>(shells_.size()); }
  const std::vector<OrbitalShell>& shells() const { return shells_; }
  const OrbitalShell& shell(int shell_index) const { return shells_.at(shell_index); }

  int NumSatellites() const { return static_cast<int>(orbits_.size()); }

  SatelliteId IdOf(int sat_index) const;
  int IndexOf(const SatelliteId& id) const;

  const CircularOrbit& orbit(int sat_index) const { return orbits_.at(sat_index); }

  geo::Vec3 PositionEcef(int sat_index, double seconds_since_epoch) const {
    return orbits_.at(sat_index).PositionEcef(seconds_since_epoch);
  }

  // Positions of all satellites at one instant (ECEF, km).
  std::vector<geo::Vec3> PositionsEcef(double seconds_since_epoch) const;

  // As PositionsEcef into a caller-owned vector (capacity reused across
  // timesteps). The Earth-rotation trig is computed once per call instead
  // of once per satellite; results are identical to PositionsEcef.
  void PositionsEcefInto(double seconds_since_epoch,
                         std::vector<geo::Vec3>* out) const;

 private:
  std::vector<OrbitalShell> shells_;
  std::vector<int> shell_start_index_;
  std::vector<CircularOrbit> orbits_;
};

// The paper's two evaluation constellations (first-phase shells, FCC
// filings): Starlink 72x22 @ 550 km / 53 deg and Kuiper 34x34 @ 630 km /
// 51.9 deg.
OrbitalShell StarlinkShell1();
OrbitalShell KuiperShell1();

// A 90-deg polar shell used by the cross-shell (Fig. 10) experiment.
OrbitalShell PolarShell();

// All five shells of Starlink's Gen1 system per the 2019-2020 FCC
// modifications: 550/53.0 (72x22), 540/53.2 (72x22), 570/70 (36x20), and
// two 560/97.6 polar shells (6x58, 4x43). The paper analyses only the
// first; the full set is provided for multi-shell experiments.
std::vector<OrbitalShell> StarlinkGen1AllShells();

}  // namespace leosim::orbit
