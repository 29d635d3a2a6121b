// Evaluation scenarios: the two first-phase constellations the paper
// analyses, with their FCC-filing parameters (paper §2).
#pragma once

#include <string>

#include "link/isl.hpp"
#include "link/radio.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {

struct Scenario {
  std::string name;
  orbit::OrbitalShell shell;
  link::RadioConfig radio;
  link::IslConfig isl;

  // Starlink phase 1: 72 planes x 22 sats, 550 km, 53 deg, e = 25 deg.
  static Scenario Starlink();

  // Kuiper phase 1: 34 planes x 34 sats, 630 km, 51.9 deg, e = 30 deg.
  static Scenario Kuiper();

  // Throws std::invalid_argument naming the first bad field: a plane or
  // per-plane satellite count below 1, an altitude that is not finite
  // and > 0, a NaN inclination, a minimum elevation outside [0, 90]
  // degrees, or a radio or ISL capacity that is NaN or not > 0.
  // NetworkModel's constructors call it.
  void Validate() const;
};

}  // namespace leosim::core
