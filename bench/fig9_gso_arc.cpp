// Reproduces Fig. 9 (paper §7): GSO arc-avoidance shrinks a terminal's
// usable field of view, worst at the Equator. Uses Starlink's
// full-deployment 40-degree minimum elevation and 22-degree separation.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/gso_study.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  std::printf("# Fig. 9: GSO arc-avoidance field-of-view reduction\n");

  std::vector<double> latitudes;
  for (double lat = 0.0; lat <= 70.0; lat += 5.0) {
    latitudes.push_back(lat);
  }
  const auto rows = RunGsoArcStudy(latitudes, 22.0);  // e = 40 deg, 22 deg sep

  PrintBanner(std::cout,
              "usable-sky fraction excluded by the GSO belt (e=40 deg, 22 deg sep)");
  Table table({"GT latitude (deg)", "excluded sky fraction"});
  for (const GsoStudyRow& row : rows) {
    table.AddRow({FormatDouble(row.latitude_deg, 0),
                  FormatDouble(row.excluded_sky_fraction, 3)});
  }
  table.Print(std::cout);
  std::printf("\npaper Fig. 9: at the Equator only small shaded regions of "
              "elevation remain reachable; BP cross-hemisphere traffic must use "
              "equatorial GTs and is hit hardest\n");

  // Sensitivity: Kuiper's planned separation ramp (12 -> 18 deg).
  PrintBanner(std::cout, "sensitivity: exclusion angle sweep at the Equator");
  Table sweep({"separation (deg)", "excluded sky fraction"});
  for (const double sep : {12.0, 18.0, 22.0}) {
    const auto r = RunGsoArcStudy({0.0}, sep);
    sweep.AddRow({FormatDouble(sep, 0), FormatDouble(r[0].excluded_sky_fraction, 3)});
  }
  sweep.Print(std::cout);
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
