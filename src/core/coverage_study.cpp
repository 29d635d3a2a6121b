#include "core/coverage_study.hpp"

#include <stdexcept>

#include "geo/geodesic.hpp"
#include "link/visibility.hpp"
#include "obs/trace.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {

namespace {

// The terminal ext_coverage tabulates: at longitude 10 degrees, sampled
// every 60 s over ~one orbital period.
constexpr double kLongitudeDeg = 10.0;
constexpr double kDurationSec = 5700.0;
constexpr double kStepSec = 60.0;

}  // namespace

std::vector<CoverageRow> RunCoverageStudy(const Scenario& scenario,
                                          const std::vector<double>& latitudes_deg) {
  const obs::Span span("study.coverage");
  // A bad latitude reaches the index's cell lookup as an int cast.
  for (const double lat : latitudes_deg) {
    if (!(lat >= -90.0 && lat <= 90.0)) {
      throw std::invalid_argument("coverage study: every latitude must lie in [-90, 90]");
    }
  }
  orbit::Constellation constellation;
  constellation.AddShell(scenario.shell);
  const double coverage = geo::CoverageRadiusKm(scenario.shell.altitude_km,
                                                scenario.radio.min_elevation_deg);

  std::vector<CoverageRow> rows;
  rows.reserve(latitudes_deg.size());
  for (const double lat : latitudes_deg) {
    rows.push_back({lat, 0.0, 0.0});
  }

  std::vector<geo::Vec3> row_ecef;
  row_ecef.reserve(rows.size());
  for (const CoverageRow& row : rows) {
    row_ecef.push_back(
        geo::GeodeticToEcef({row.latitude_deg, kLongitudeDeg, 0.0}));
  }

  int samples = 0;
  std::vector<geo::Vec3> sats;
  link::SatelliteIndex index;
  std::vector<int> visible;
  for (double t = 0.0; t <= kDurationSec; t += kStepSec) {
    constellation.PositionsEcefInto(t, &sats);
    index.Rebuild(sats, coverage + 100.0);
    ++samples;
    for (size_t i = 0; i < rows.size(); ++i) {
      CoverageRow& row = rows[i];
      index.VisibleInto(row_ecef[i], scenario.radio.min_elevation_deg, &visible);
      row.mean_visible += static_cast<double>(visible.size());
      if (!visible.empty()) {
        row.availability += 1.0;
      }
    }
  }
  for (CoverageRow& row : rows) {
    row.mean_visible /= samples;
    row.availability /= samples;
  }
  return rows;
}

}  // namespace leosim::core
