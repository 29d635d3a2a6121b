// Two-Line Element (TLE) ingestion.
//
// Real constellation studies start from published TLEs (e.g. CelesTrak's
// Starlink set). This module parses the NORAD TLE format — with checksum
// verification — and converts near-circular elements into the library's
// CircularOrbitElements so a Constellation can be built from a live
// catalogue instead of an idealised Walker shell. Eccentric orbits
// (e > 0.05) are rejected: the circular propagator would misplace them.
#pragma once

#include <string>
#include <vector>

#include "orbit/walker.hpp"

namespace leosim::orbit {

struct Tle {
  std::string name;            // line 0 (optional)
  int catalog_number{0};
  int epoch_year{2020};        // four-digit
  double epoch_day{1.0};       // day of year with fraction
  double inclination_deg{0.0};
  double raan_deg{0.0};
  double eccentricity{0.0};
  double arg_perigee_deg{0.0};
  double mean_anomaly_deg{0.0};
  double mean_motion_rev_per_day{0.0};

  // Altitude implied by the mean motion (circular, spherical Earth), km.
  double AltitudeKm() const;

  // Collapses to circular elements: the argument of latitude at epoch is
  // arg_perigee + mean_anomaly (exact for e = 0).
  CircularOrbitElements ToCircularElements() const;
};

// Computes the NORAD modulo-10 checksum of the first 68 characters.
int TleChecksum(const std::string& line);

// Parses one element set from `line1`/`line2` (and an optional preceding
// name line). Throws std::invalid_argument on malformed lines or failed
// checksums; for a field that reads NaN or infinite, a catalog number or
// epoch year that is not a whole number within its digits, or an angle
// outside [0, 180] (inclination) or [0, 360] degrees; for a mean motion
// below 1e-8 rev/day (the field's last decimal) or one that puts the
// orbit below the Earth's surface; and
// for eccentricities beyond the circular-model regime.
Tle ParseTle(const std::string& line1, const std::string& line2,
             const std::string& name = "");

// Parses a multi-satellite catalogue in the standard 3-line (name + 2
// lines) or bare 2-line layout. Blank lines are skipped.
std::vector<Tle> ParseTleCatalog(const std::string& text);

// Builds a constellation directly from parsed TLEs. The synthetic "shell"
// metadata records the mean altitude/inclination of the set.
Constellation ConstellationFromTles(const std::vector<Tle>& tles);

}  // namespace leosim::orbit
