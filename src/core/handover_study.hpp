// Satellite pass / handover dynamics for a ground terminal.
//
// Paper §2: "Each satellite is reachable from a GT for a few minutes,
// after which the GT must connect to a different satellite." This study
// quantifies that: pass durations, concurrent visibility, and the implied
// handover rate — the root cause of the BP latency churn of Figs. 2-3.
#pragma once

#include "core/scenario.hpp"
#include "geo/coordinates.hpp"

namespace leosim::core {

struct HandoverStats {
  // Passes that both start and end inside the observation window.
  int completed_passes{0};
  double mean_pass_duration_sec{0.0};
  double max_pass_duration_sec{0.0};
  double min_pass_duration_sec{0.0};
  // Time-averaged number of simultaneously visible satellites.
  double mean_visible_sats{0.0};
  // Rate at which tracked satellites set below the minimum elevation
  // (pass endings per hour) — a lower bound on forced handovers.
  double pass_endings_per_hour{0.0};
  // Fraction of the window with no satellite visible at all.
  double outage_fraction{0.0};
};

// Samples the terminal's sky every 10 s over a 2 h window from t = 0 (the
// window ext_handover tabulates). Throws std::invalid_argument when the
// terminal's latitude is outside [-90, 90] or any of its fields is not
// finite.
HandoverStats RunHandoverStudy(const Scenario& scenario,
                               const geo::GeodeticCoord& terminal);

}  // namespace leosim::core
