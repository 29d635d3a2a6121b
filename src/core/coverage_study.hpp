// Service coverage and availability by latitude: what fraction of time a
// terminal sees at least `min_satellites` satellites, and the mean number
// in view. Explains the paper's geography — Starlink's 53-degree shell
// serves mid-latitudes densely, the Equator thinly, and nothing above
// ~57 degrees — which in turn shapes every BP-vs-ISL comparison.
#pragma once

#include <vector>

#include "core/scenario.hpp"

namespace leosim::core {

struct CoverageStudyOptions {
  std::vector<double> latitudes_deg{0,  10, 20, 30, 40, 45, 50, 53, 56, 60};
  double longitude_deg{10.0};
  double duration_sec{5700.0};  // ~one orbital period
  double step_sec{60.0};
  int min_satellites{1};

  // Throws std::invalid_argument unless duration_sec is finite and >= 0,
  // step_sec is finite, > 0 and advances t at duration_sec, every
  // latitude lies in [-90, 90], longitude_deg is finite and
  // min_satellites >= 0. RunCoverageStudy calls it.
  void Validate() const;
};

struct CoverageRow {
  double latitude_deg{0.0};
  double mean_visible{0.0};
  double availability{0.0};  // fraction of samples with >= min_satellites
};

std::vector<CoverageRow> RunCoverageStudy(const Scenario& scenario,
                                          const CoverageStudyOptions& options);

}  // namespace leosim::core
