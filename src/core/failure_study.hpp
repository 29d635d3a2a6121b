// Extension: resilience to satellite failures.
//
// LEO operators lose satellites routinely (failed deployments, de-orbits,
// debris avoidance). This study disables a random fraction of satellites
// in a snapshot — removing all their radio links and ISLs — and measures
// how reachability and latency degrade under BP vs hybrid connectivity.
// It complements the paper's weather-resilience argument: ISLs add path
// diversity that also absorbs hardware failures.
#pragma once

#include <cstdint>
#include <vector>

#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"

namespace leosim::core {

struct FailureStudyOptions {
  std::vector<double> failure_fractions{0.0, 0.05, 0.1, 0.2, 0.3};
  double time_sec{0.0};
  uint64_t seed{7};
  int trials{3};  // random failure sets averaged per fraction

  // Throws std::invalid_argument naming the first bad field: a failure
  // fraction that is NaN or outside [0, 1], or trials below 1.
  // RunFailureStudy calls it.
  void Validate() const;
};

struct FailureRow {
  double failure_fraction{0.0};
  double reachable_fraction{0.0};  // of pairs, averaged over trials
  double mean_rtt_ms{0.0};         // over reachable pairs
};

// Disables floor(fraction * num_sats) uniformly-random satellites (their
// edges) and routes every pair. One row per requested fraction. Throws
// std::invalid_argument for bad options or an empty pair list.
std::vector<FailureRow> RunFailureStudy(const NetworkModel& model,
                                        const std::vector<CityPair>& pairs,
                                        const FailureStudyOptions& options);

}  // namespace leosim::core
