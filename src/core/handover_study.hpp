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

struct HandoverStudyOptions {
  double duration_sec{7200.0};
  double step_sec{10.0};

  // Throws std::invalid_argument unless duration_sec is finite and > 0
  // (the rates divide by it) and step_sec is finite, > 0 and advances t
  // at duration_sec. RunHandoverStudy calls it.
  void Validate() const;
};

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

// Throws std::invalid_argument when `options` fails Validate or the
// terminal's latitude is outside [-90, 90] or any of its fields is not
// finite.
HandoverStats RunHandoverStudy(const Scenario& scenario,
                               const geo::GeodeticCoord& terminal,
                               const HandoverStudyOptions& options);

}  // namespace leosim::core
