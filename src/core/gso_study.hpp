// GSO arc-avoidance study (paper §7, Fig. 9): how much of a terminal's
// usable sky the GSO exclusion angle removes, as a function of latitude.
// Near the Equator only small shaded regions of elevation remain usable;
// at higher latitudes the GSO arc sits low in the southern sky and the
// exclusion barely bites.
#pragma once

#include <vector>

namespace leosim::core {

struct GsoStudyRow {
  double latitude_deg{0.0};
  // Fraction of the usable sky dome (elevation >= min) lost to the
  // exclusion, solid-angle weighted.
  double excluded_sky_fraction{0.0};
};

// One row per latitude, for a terminal that must keep `separation_deg`
// from the GSO arc (Starlink files 22 degrees) above Starlink's
// full-deployment 40-degree minimum elevation. Throws
// std::invalid_argument, before sampling anything, for a separation that
// is not in [0, 180] or a latitude that is not in [-90, 90] (NaN fails
// both).
std::vector<GsoStudyRow> RunGsoArcStudy(const std::vector<double>& latitudes_deg,
                                        double separation_deg);

}  // namespace leosim::core
