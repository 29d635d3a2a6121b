// Radio (ground-terminal <-> satellite) link parameters and helpers.
#pragma once

#include "geo/vec3.hpp"

namespace leosim::link {

// Paper §2/§5 defaults: GT-satellite radio links carry up to 20 Gbps;
// Starlink Ku-band up-link 14.25 GHz and down-link 11.7 GHz (§6).
struct RadioConfig {
  double min_elevation_deg{25.0};
  double capacity_gbps{20.0};
  double uplink_freq_ghz{14.25};
  double downlink_freq_ghz{11.7};

  bool operator==(const RadioConfig&) const = default;
};

// One-way propagation latency over a straight segment, milliseconds.
// Radio and laser links both propagate at c.
double PropagationLatencyMs(double distance_km);

// Latency between two ECEF positions, milliseconds.
double PropagationLatencyMs(const geo::Vec3& a, const geo::Vec3& b);

}  // namespace leosim::link
