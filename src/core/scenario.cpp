#include "core/scenario.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace leosim::core {

Scenario Scenario::Starlink() {
  Scenario s;
  s.name = "starlink";
  s.shell = orbit::StarlinkShell1();
  s.radio.min_elevation_deg = 25.0;
  s.radio.capacity_gbps = 20.0;
  s.radio.uplink_freq_ghz = 14.25;
  s.radio.downlink_freq_ghz = 11.7;
  s.isl.capacity_gbps = 100.0;
  return s;
}

Scenario Scenario::Kuiper() {
  Scenario s;
  s.name = "kuiper";
  s.shell = orbit::KuiperShell1();
  s.radio.min_elevation_deg = 30.0;
  s.radio.capacity_gbps = 20.0;
  // Kuiper is a Ka-band system; we keep the paper's §6 Ku frequencies for
  // the attenuation study, which only evaluates Starlink.
  s.radio.uplink_freq_ghz = 14.25;
  s.radio.downlink_freq_ghz = 11.7;
  s.isl.capacity_gbps = 100.0;
  return s;
}

void Scenario::Validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("scenario: ") + what);
    }
  };
  // Written so that NaN fails every check.
  require(shell.num_planes > 0, "num_planes must be > 0");
  require(shell.sats_per_plane > 0, "sats_per_plane must be > 0");
  require(std::isfinite(shell.altitude_km) && shell.altitude_km > 0.0,
          "altitude_km must be finite and > 0");
  require(!std::isnan(shell.inclination_deg), "inclination_deg must not be NaN");
  require(radio.min_elevation_deg >= 0.0 && radio.min_elevation_deg <= 90.0,
          "min_elevation_deg must be in [0, 90]");
  require(radio.capacity_gbps > 0.0, "radio capacity_gbps must be > 0");
  require(isl.capacity_gbps > 0.0, "isl capacity_gbps must be > 0");
}

}  // namespace leosim::core
