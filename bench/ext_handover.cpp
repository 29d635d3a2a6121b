// Extension: satellite pass / handover dynamics (quantifies paper §2's
// "each satellite is reachable from a GT for a few minutes" and the churn
// driving Figs. 2-3).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/handover_study.hpp"
#include "core/report.hpp"
#include "data/cities.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  std::printf("# Extension: GT-satellite pass durations and handover rates\n");

  for (const Scenario& scenario : {Scenario::Starlink(), Scenario::Kuiper()}) {
    PrintBanner(std::cout, scenario.name + ": passes over 2 h, 10 s sampling");
    Table table({"terminal", "lat", "mean pass (min)", "max pass (min)",
                 "visible sats (mean)", "handovers/h", "outage"});
    for (const char* name :
         {"Singapore", "Delhi", "Paris", "London", "Anchorage"}) {
      const data::City& city = data::FindCity(name);
      const HandoverStats stats = RunHandoverStudy(scenario, city.Coord());
      table.AddRow({name, FormatDouble(city.latitude_deg, 1),
                    FormatDouble(stats.mean_pass_duration_sec / 60.0, 1),
                    FormatDouble(stats.max_pass_duration_sec / 60.0, 1),
                    FormatDouble(stats.mean_visible_sats, 1),
                    FormatDouble(stats.pass_endings_per_hour, 0),
                    FormatDouble(stats.outage_fraction * 100.0, 1) + "%"});
    }
    table.Print(std::cout);
  }
  std::printf("\npaper §2: passes last a few minutes, so every GT re-homes "
              "constantly — with BP, every re-homing can reshape the end-end "
              "path (the churn of Fig. 2b).\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
