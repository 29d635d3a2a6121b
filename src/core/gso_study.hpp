// GSO arc-avoidance study (paper §7, Fig. 9): how much of a terminal's
// usable sky the GSO exclusion angle removes, as a function of latitude.
// Near the Equator only small shaded regions of elevation remain usable;
// at higher latitudes the GSO arc sits low in the southern sky and the
// exclusion barely bites.
#pragma once

#include <vector>

namespace leosim::core {

struct GsoStudyOptions {
  double min_elevation_deg{40.0};  // Starlink full-deployment value (Fig. 9)
  double separation_deg{22.0};     // Starlink filing value
  // Sky-dome sampling resolution.
  double azimuth_step_deg{3.0};
  double elevation_step_deg{1.5};

  // Throws std::invalid_argument unless both steps are finite, > 0 and
  // advance an angle of 360 degrees. RunGsoArcStudy calls it.
  void Validate() const;
};

struct GsoStudyRow {
  double latitude_deg{0.0};
  // Fraction of the usable sky dome (elevation >= min) lost to the
  // exclusion, solid-angle weighted.
  double excluded_sky_fraction{0.0};
};

std::vector<GsoStudyRow> RunGsoArcStudy(const std::vector<double>& latitudes_deg,
                                        const GsoStudyOptions& options);

}  // namespace leosim::core
