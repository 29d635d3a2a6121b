// Extension: resilience to satellite failures.
//
// LEO operators lose satellites routinely (failed deployments, de-orbits,
// debris avoidance). This study disables a random fraction of satellites
// in a snapshot — removing all their radio links and ISLs — and measures
// how reachability and latency degrade under BP vs hybrid connectivity.
// It complements the paper's weather-resilience argument: ISLs add path
// diversity that also absorbs hardware failures.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"

namespace leosim::core {

// The sweep ext_failures tabulates: the failed share of satellites per
// row, the random failure sets averaged per nonzero fraction, and the
// SplitMix64 seed they are drawn from (one stream across all rows). The
// study routes its one snapshot at t = 0.
inline constexpr std::array<double, 5> kFailureFractions{0.0, 0.05, 0.1, 0.2, 0.3};
inline constexpr int kFailureTrials = 3;
inline constexpr uint64_t kFailureSeed = 7;

struct FailureRow {
  double failure_fraction{0.0};
  double reachable_fraction{0.0};  // of pairs, averaged over trials
  double mean_rtt_ms{0.0};         // over reachable pairs
};

// Disables floor(fraction * num_sats) uniformly-random satellites (their
// edges) and routes every pair. One row per kFailureFractions entry.
// Throws std::invalid_argument for an empty pair list.
std::vector<FailureRow> RunFailureStudy(const NetworkModel& model,
                                        const std::vector<CityPair>& pairs);

}  // namespace leosim::core
