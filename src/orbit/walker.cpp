#include "orbit/walker.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"

namespace leosim::orbit {

Constellation Constellation::WalkerDelta(const OrbitalShell& shell) {
  Constellation c;
  c.AddShell(shell);
  return c;
}

Constellation Constellation::FromElements(
    const OrbitalShell& metadata, const std::vector<CircularOrbitElements>& elements) {
  if (metadata.TotalSatellites() != static_cast<int>(elements.size())) {
    throw std::invalid_argument(
        "shell metadata plane/slot counts must multiply to the element count");
  }
  Constellation c;
  c.shells_.push_back(metadata);
  c.shell_start_index_.push_back(0);
  c.orbits_.reserve(elements.size());
  for (const CircularOrbitElements& e : elements) {
    c.orbits_.emplace_back(e);
  }
  return c;
}

int Constellation::AddShell(const OrbitalShell& shell) {
  if (shell.num_planes <= 0 || shell.sats_per_plane <= 0) {
    throw std::invalid_argument("orbital shell must have positive plane/slot counts");
  }
  const int start = NumSatellites();
  shells_.push_back(shell);
  shell_start_index_.push_back(start);
  orbits_.reserve(orbits_.size() + static_cast<size_t>(shell.TotalSatellites()));

  const double raan_step = shell.raan_spread_deg / shell.num_planes;
  const double slot_step = 360.0 / shell.sats_per_plane;
  const double phase_step =
      shell.phase_factor * 360.0 / (shell.num_planes * shell.sats_per_plane);
  for (int plane = 0; plane < shell.num_planes; ++plane) {
    for (int slot = 0; slot < shell.sats_per_plane; ++slot) {
      CircularOrbitElements elements;
      elements.altitude_km = shell.altitude_km;
      elements.inclination_deg = shell.inclination_deg;
      elements.raan_deg = shell.raan_offset_deg + plane * raan_step;
      elements.arg_latitude_epoch_deg = slot * slot_step + plane * phase_step;
      orbits_.emplace_back(elements);
    }
  }
  return start;
}

SatelliteId Constellation::IdOf(int sat_index) const {
  if (sat_index < 0 || sat_index >= NumSatellites()) {
    throw std::out_of_range("satellite index out of range");
  }
  int shell_index = static_cast<int>(shells_.size()) - 1;
  while (shell_index > 0 && shell_start_index_[shell_index] > sat_index) {
    --shell_index;
  }
  const int offset = sat_index - shell_start_index_[shell_index];
  const OrbitalShell& s = shells_[shell_index];
  return {shell_index, offset / s.sats_per_plane, offset % s.sats_per_plane};
}

int Constellation::IndexOf(const SatelliteId& id) const {
  const OrbitalShell& s = shells_.at(id.shell);
  if (id.plane < 0 || id.plane >= s.num_planes || id.slot < 0 ||
      id.slot >= s.sats_per_plane) {
    throw std::out_of_range("satellite id out of range");
  }
  return shell_start_index_.at(id.shell) + id.plane * s.sats_per_plane + id.slot;
}

std::vector<geo::Vec3> Constellation::PositionsEcef(double seconds_since_epoch) const {
  std::vector<geo::Vec3> positions;
  PositionsEcefInto(seconds_since_epoch, &positions);
  return positions;
}

void Constellation::PositionsEcefInto(double seconds_since_epoch,
                                      std::vector<geo::Vec3>* out) const {
  out->clear();
  out->reserve(orbits_.size());
  // One ECI->ECEF rotation serves the whole snapshot (same expression as
  // geo::EciToEcef, with the trig hoisted out of the satellite loop).
  const double theta = geo::kEarthRotationRadPerSec * seconds_since_epoch;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  for (const CircularOrbit& orbit : orbits_) {
    const geo::Vec3 eci = orbit.PositionEci(seconds_since_epoch);
    out->push_back({c * eci.x + s * eci.y, -s * eci.x + c * eci.y, eci.z});
  }
}

OrbitalShell StarlinkShell1() {
  OrbitalShell shell;
  shell.name = "starlink-s1";
  shell.num_planes = 72;
  shell.sats_per_plane = 22;
  shell.altitude_km = 550.0;
  shell.inclination_deg = 53.0;
  shell.phase_factor = 1.0;
  return shell;
}

OrbitalShell KuiperShell1() {
  OrbitalShell shell;
  shell.name = "kuiper-s1";
  shell.num_planes = 34;
  shell.sats_per_plane = 34;
  shell.altitude_km = 630.0;
  shell.inclination_deg = 51.9;
  shell.phase_factor = 1.0;
  return shell;
}

std::vector<OrbitalShell> StarlinkGen1AllShells() {
  std::vector<OrbitalShell> shells;
  shells.push_back(StarlinkShell1());

  OrbitalShell s2;
  s2.name = "starlink-s2";
  s2.num_planes = 72;
  s2.sats_per_plane = 22;
  s2.altitude_km = 540.0;
  s2.inclination_deg = 53.2;
  shells.push_back(s2);

  OrbitalShell s3;
  s3.name = "starlink-s3";
  s3.num_planes = 36;
  s3.sats_per_plane = 20;
  s3.altitude_km = 570.0;
  s3.inclination_deg = 70.0;
  shells.push_back(s3);

  OrbitalShell s4;
  s4.name = "starlink-s4";
  s4.num_planes = 6;
  s4.sats_per_plane = 58;
  s4.altitude_km = 560.0;
  s4.inclination_deg = 97.6;
  s4.raan_spread_deg = 180.0;  // near-polar: Walker-star spread
  shells.push_back(s4);

  OrbitalShell s5;
  s5.name = "starlink-s5";
  s5.num_planes = 4;
  s5.sats_per_plane = 43;
  s5.altitude_km = 560.0;
  s5.inclination_deg = 97.6;
  s5.raan_spread_deg = 180.0;
  s5.raan_offset_deg = 22.5;  // interleave with shell 4
  shells.push_back(s5);
  return shells;
}

OrbitalShell PolarShell() {
  OrbitalShell shell;
  shell.name = "polar";
  shell.num_planes = 24;
  shell.sats_per_plane = 24;
  shell.altitude_km = 1100.0;
  shell.inclination_deg = 90.0;
  // Polar constellations conventionally spread ascending nodes over 180 deg
  // (a Walker-star pattern) so ascending and descending passes interleave.
  shell.raan_spread_deg = 180.0;
  shell.phase_factor = 1.0;
  return shell;
}

}  // namespace leosim::orbit
