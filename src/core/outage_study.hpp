// Weather-outage study: the operational consequence of §6's attenuation
// numbers. A link whose attenuation exceeds the system's fade margin is
// unusable at that availability target; this study disables every radio
// link whose attenuation (at the given exceedance) exceeds the margin and
// measures what is left of the network. BP paths, with their many radio
// bounces through wet regions, shatter before hybrid paths do.
#pragma once

#include <array>
#include <vector>

#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"

namespace leosim::core {

// The fade margins ext_weather_outage sweeps, one row each, and the
// weather percentile a margin must survive: 0.1% exceedance, heavy-rain
// conditions. The study scores its one snapshot at t = 0.
inline constexpr std::array<double, 5> kOutageMarginsDb{10.0, 6.0, 4.0, 3.0, 2.0};
inline constexpr double kOutageExceedancePct = 0.1;

struct OutageRow {
  double margin_db{0.0};
  double links_disabled_fraction{0.0};
  double reachable_fraction{0.0};  // of pairs
  double mean_rtt_ms{0.0};         // over reachable pairs
};

// One row per kOutageMarginsDb entry. Throws std::invalid_argument for an
// empty pair list.
std::vector<OutageRow> RunOutageStudy(const NetworkModel& model,
                                      const std::vector<CityPair>& pairs);

}  // namespace leosim::core
