// Weather-outage study: the operational consequence of §6's attenuation
// numbers. A link whose attenuation exceeds the system's fade margin is
// unusable at that availability target; this study disables every radio
// link whose attenuation (at the given exceedance) exceeds the margin and
// measures what is left of the network. BP paths, with their many radio
// bounces through wet regions, shatter before hybrid paths do.
#pragma once

#include <vector>

#include "core/attenuation_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"

namespace leosim::core {

struct OutageStudyOptions {
  std::vector<double> margins_db{10.0, 6.0, 4.0, 3.0, 2.0};
  double time_sec{0.0};
  // The antenna, and the weather percentile the margin must survive.
  AttenuationOptions attenuation{.exceedance_pct = 0.1};

  // Throws std::invalid_argument naming the first bad field: a margin
  // that is not finite, or a bad field of `attenuation`
  // (AttenuationOptions::Validate). RunOutageStudy calls it.
  void Validate() const;
};

struct OutageRow {
  double margin_db{0.0};
  double links_disabled_fraction{0.0};
  double reachable_fraction{0.0};  // of pairs
  double mean_rtt_ms{0.0};         // over reachable pairs
};

// One row per margin. Throws std::invalid_argument for bad options or an
// empty pair list.
std::vector<OutageRow> RunOutageStudy(const NetworkModel& model,
                                      const std::vector<CityPair>& pairs,
                                      const OutageStudyOptions& options);

}  // namespace leosim::core
