// Network-level impact of GSO arc-avoidance (extends Fig. 9 from geometry
// to end-to-end paths).
//
// Paper §7: "With BP, any traffic between the northern and southern
// hemispheres would use GTs near the Equator. Thus, the impact of the
// reduced GT field-of-view will be much higher on BP than on ISL
// connectivity." This study routes cross-hemisphere pairs with and
// without the exclusion applied to every radio link, under both modes.
#pragma once

#include <vector>

#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"

namespace leosim::core {

struct GsoModeImpact {
  int pairs{0};
  int reachable_without_exclusion{0};
  int reachable_with_exclusion{0};
  // Mean RTT over pairs reachable in BOTH configurations.
  double mean_rtt_without_ms{0.0};
  double mean_rtt_with_ms{0.0};

  double MeanRttInflationMs() const { return mean_rtt_with_ms - mean_rtt_without_ms; }
};

struct GsoNetworkResult {
  GsoModeImpact bent_pipe;
  GsoModeImpact hybrid;
};

// Filters `pairs` down to cross-hemisphere pairs (endpoints on opposite
// sides of the Equator).
std::vector<CityPair> CrossHemispherePairs(const std::vector<data::City>& cities,
                                           const std::vector<CityPair>& pairs);

// `base_options` configures the shared ground segment (relay spacing,
// aircraft); the study derives a hybrid model without and one with the
// exclusion (Starlink's 22-degree separation, NetworkOptions::
// apply_gso_exclusion) from it, and routes each one's snapshot at t = 0 as
// built and with its ISLs masked (the bent-pipe view).
GsoNetworkResult RunGsoNetworkStudy(const Scenario& scenario,
                                    const std::vector<data::City>& cities,
                                    const std::vector<CityPair>& pairs,
                                    const NetworkOptions& base_options);

}  // namespace leosim::core
