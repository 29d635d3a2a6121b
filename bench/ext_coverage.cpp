// Extension: service coverage/availability by latitude, for the paper's
// first-phase shells, an elevation-mask sweep (Starlink plans to raise
// the mask from 25 to 40 degrees over deployment, §7), and the full
// five-shell Starlink Gen1 system vs the single shell the paper models.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/coverage_study.hpp"
#include "core/report.hpp"
#include "geo/geodesic.hpp"
#include "link/visibility.hpp"
#include "orbit/walker.hpp"

using namespace leosim;
using namespace leosim::core;

namespace {

// Availability over one period for a multi-shell constellation (the
// coverage study itself is single-shell; this local sweep handles the
// Gen1 comparison).
void MultiShellRows(const std::vector<orbit::OrbitalShell>& shells,
                    double min_elevation_deg, Table* table, const char* label) {
  orbit::Constellation constellation;
  double max_altitude = 0.0;
  for (const orbit::OrbitalShell& s : shells) {
    constellation.AddShell(s);
    max_altitude = std::max(max_altitude, s.altitude_km);
  }
  const double coverage = geo::CoverageRadiusKm(max_altitude, min_elevation_deg);
  for (const double lat : {0.0, 30.0, 53.0, 60.0, 70.0, 80.0}) {
    int available = 0;
    int samples = 0;
    double visible_sum = 0.0;
    for (double t = 0.0; t <= 5700.0; t += 120.0) {
      const auto sats = constellation.PositionsEcef(t);
      const link::SatelliteIndex index(sats, coverage + 100.0);
      const auto visible =
          index.Visible(geo::GeodeticToEcef({lat, 10.0, 0.0}), min_elevation_deg);
      visible_sum += static_cast<double>(visible.size());
      available += visible.empty() ? 0 : 1;
      ++samples;
    }
    table->AddRow({label, FormatDouble(lat, 0),
                   FormatDouble(visible_sum / samples, 1),
                   FormatDouble(100.0 * available / samples, 1) + "%"});
  }
}

}  // namespace

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  std::printf("# Extension: coverage and availability by latitude\n");

  PrintBanner(std::cout, "paper shells: mean visible satellites / availability");
  Table table({"constellation", "latitude", "mean visible", "availability"});
  for (const Scenario& scenario : {Scenario::Starlink(), Scenario::Kuiper()}) {
    for (const CoverageRow& row :
         RunCoverageStudy(scenario, {0, 10, 20, 30, 40, 45, 50, 53, 56, 60})) {
      table.AddRow({scenario.name, FormatDouble(row.latitude_deg, 0),
                    FormatDouble(row.mean_visible, 1),
                    FormatDouble(row.availability * 100.0, 1) + "%"});
    }
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "elevation-mask sweep (Starlink shell 1, lat 45)");
  Table mask({"min elevation", "coverage radius (km)", "mean visible",
              "availability"});
  for (const double e : {25.0, 30.0, 35.0, 40.0}) {
    Scenario scenario = Scenario::Starlink();
    scenario.radio.min_elevation_deg = e;
    const auto rows = RunCoverageStudy(scenario, {45.0});
    mask.AddRow({FormatDouble(e, 0),
                 FormatDouble(geo::CoverageRadiusKm(550.0, e), 0),
                 FormatDouble(rows[0].mean_visible, 1),
                 FormatDouble(rows[0].availability * 100.0, 1) + "%"});
  }
  mask.Print(std::cout);
  std::printf("raising the mask to 40 deg (planned for full deployment, §7) "
              "shrinks every cone by ~2.7x in area — another argument for "
              "density or ISLs.\n");

  PrintBanner(std::cout, "single 53-deg shell vs full 5-shell Starlink Gen1");
  Table gen1({"configuration", "latitude", "mean visible", "availability"});
  MultiShellRows({orbit::StarlinkShell1()}, 25.0, &gen1, "shell 1 only");
  MultiShellRows(orbit::StarlinkGen1AllShells(), 25.0, &gen1, "all 5 shells");
  gen1.Print(std::cout);
  std::printf("the paper's single-shell restriction is fair for mid-latitudes "
              "but misses the polar shells' high-latitude coverage.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
