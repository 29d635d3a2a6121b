#include "core/coverage_study.hpp"

#include <cmath>
#include <stdexcept>

#include "geo/geodesic.hpp"
#include "link/visibility.hpp"
#include "obs/trace.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {

void CoverageStudyOptions::Validate() const {
  // NaN fails too; the sampler adds step_sec until t passes duration_sec.
  if (!(duration_sec >= 0.0 && std::isfinite(step_sec) && step_sec > 0.0 &&
        duration_sec + step_sec > duration_sec)) {
    throw std::invalid_argument(
        "coverage options: need a finite duration_sec >= 0 and a finite "
        "step_sec > 0 that advances past it");
  }
  for (const double lat : latitudes_deg) {
    if (!(lat >= -90.0 && lat <= 90.0)) {
      throw std::invalid_argument(
          "coverage options: every latitude must lie in [-90, 90]");
    }
  }
  if (!std::isfinite(longitude_deg)) {
    throw std::invalid_argument("coverage options: longitude_deg must be finite");
  }
  if (min_satellites < 0) {
    throw std::invalid_argument("coverage options: min_satellites must be >= 0");
  }
}

std::vector<CoverageRow> RunCoverageStudy(const Scenario& scenario,
                                          const CoverageStudyOptions& options) {
  const obs::Span span("study.coverage");
  options.Validate();
  orbit::Constellation constellation;
  constellation.AddShell(scenario.shell);
  const double coverage = geo::CoverageRadiusKm(scenario.shell.altitude_km,
                                                scenario.radio.min_elevation_deg);

  std::vector<CoverageRow> rows;
  rows.reserve(options.latitudes_deg.size());
  for (const double lat : options.latitudes_deg) {
    rows.push_back({lat, 0.0, 0.0});
  }

  std::vector<geo::Vec3> row_ecef;
  row_ecef.reserve(rows.size());
  for (const CoverageRow& row : rows) {
    row_ecef.push_back(
        geo::GeodeticToEcef({row.latitude_deg, options.longitude_deg, 0.0}));
  }

  int samples = 0;
  std::vector<geo::Vec3> sats;
  link::SatelliteIndex index;
  std::vector<int> visible;
  for (double t = 0.0; t <= options.duration_sec; t += options.step_sec) {
    constellation.PositionsEcefInto(t, &sats);
    index.Rebuild(sats, coverage + 100.0);
    ++samples;
    for (size_t i = 0; i < rows.size(); ++i) {
      CoverageRow& row = rows[i];
      index.VisibleInto(row_ecef[i], scenario.radio.min_elevation_deg, &visible);
      row.mean_visible += static_cast<double>(visible.size());
      if (static_cast<int>(visible.size()) >= options.min_satellites) {
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
