// Prints an "atlas" of a constellation: orbital facts, coverage geometry,
// ISL properties, and how many satellites a terminal sees by latitude —
// a tour of the orbit/link substrate APIs.
//
//   ./constellation_atlas [starlink|kuiper]
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/cli_flags.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "geo/geodesic.hpp"
#include "link/visibility.hpp"
#include "orbit/elements.hpp"
#include "orbit/isl_grid.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "starlink";
  if (which != "starlink" && which != "kuiper") {
    throw std::invalid_argument("expected starlink|kuiper, got '" + which + "'");
  }
  const Scenario scenario =
      which == "kuiper" ? Scenario::Kuiper() : Scenario::Starlink();
  const orbit::OrbitalShell& shell = scenario.shell;

  std::printf("constellation atlas: %s\n", scenario.name.c_str());

  PrintBanner(std::cout, "orbital shell");
  std::printf("planes x sats:     %d x %d = %d satellites\n", shell.num_planes,
              shell.sats_per_plane, shell.TotalSatellites());
  std::printf("altitude:          %.0f km, inclination %.1f deg\n",
              shell.altitude_km, shell.inclination_deg);
  std::printf("orbital period:    %.1f min\n",
              orbit::OrbitalPeriodSec(shell.altitude_km) / 60.0);
  std::printf("orbital speed:     %.2f km/s (%.0f km/h)\n",
              orbit::OrbitalSpeedKmPerSec(shell.altitude_km),
              orbit::OrbitalSpeedKmPerSec(shell.altitude_km) * 3600.0);

  PrintBanner(std::cout, "ground-satellite geometry");
  const double e = scenario.radio.min_elevation_deg;
  std::printf("min elevation:     %.0f deg\n", e);
  std::printf("coverage radius:   %.0f km\n",
              geo::CoverageRadiusKm(shell.altitude_km, e));
  std::printf("max slant range:   %.0f km (%.2f ms one-way)\n",
              geo::MaxSlantRangeKm(shell.altitude_km, e),
              geo::MaxSlantRangeKm(shell.altitude_km, e) /
                  geo::kSpeedOfLightKmPerSec * 1000.0);

  const auto constellation = orbit::Constellation::WalkerDelta(shell);
  const auto isls = orbit::PlusGridIsls(constellation, 0);
  PrintBanner(std::cout, "+Grid inter-satellite links");
  std::printf("ISL count:         %zu (4 per satellite)\n", isls.size());
  std::printf("longest ISL:       %.0f km\n",
              orbit::MaxIslLengthKm(constellation, isls, {0.0, 1800.0, 3600.0}));
  std::printf("lowest ISL dip:    %.0f km altitude (weather needs >80 km)\n",
              orbit::MinIslAltitudeKm(constellation, isls, {0.0, 1800.0}));

  PrintBanner(std::cout, "visible satellites by terminal latitude (t=0)");
  const auto sats = constellation.PositionsEcef(0.0);
  const link::SatelliteIndex index(
      sats, geo::CoverageRadiusKm(shell.altitude_km, e) + 100.0);
  Table table({"latitude (deg)", "visible satellites"});
  for (double lat = 0.0; lat <= 70.0; lat += 10.0) {
    const auto visible = index.Visible(geo::GeodeticToEcef({lat, 10.0, 0.0}), e);
    table.AddRow({FormatDouble(lat, 0), std::to_string(visible.size())});
  }
  table.Print(std::cout);
  std::printf("\ncoverage is densest just below the inclination latitude and "
              "zero beyond it — the reason mid-latitude cities are served "
              "best.\n");
  return 0;
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
