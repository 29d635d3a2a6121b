// Service coverage and availability by latitude: what fraction of time a
// terminal sees at least one satellite, and the mean number in view.
// Explains the paper's geography — Starlink's 53-degree shell serves
// mid-latitudes densely, the Equator thinly, and nothing above ~57
// degrees — which in turn shapes every BP-vs-ISL comparison.
#pragma once

#include <vector>

#include "core/scenario.hpp"

namespace leosim::core {

struct CoverageRow {
  double latitude_deg{0.0};
  double mean_visible{0.0};
  double availability{0.0};  // fraction of samples with a satellite in view
};

// One row per latitude, for a terminal at longitude 10 degrees sampled
// every 60 s over ~one orbital period (5,700 s) from t = 0. Throws
// std::invalid_argument, before sampling anything, unless every latitude
// lies in [-90, 90].
std::vector<CoverageRow> RunCoverageStudy(const Scenario& scenario,
                                          const std::vector<double>& latitudes_deg);

}  // namespace leosim::core
