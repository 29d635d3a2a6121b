// Extension: resilience to satellite failures. Disables random satellite
// subsets and compares how BP and hybrid connectivity degrade — ISL path
// diversity absorbs hardware loss the same way it absorbs weather.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/failure_study.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  if (config.num_pairs > 200) {
    config.num_pairs = 200;
  }
  bench::PrintConfig(config, "Extension: satellite-failure resilience (Starlink)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(scenario,
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);

  FailureStudyOptions options;
  const auto bp_rows = RunFailureStudy(bp, pairs, options);
  const auto hy_rows = RunFailureStudy(hybrid, pairs, options);

  PrintBanner(std::cout, "pair reachability and mean RTT vs failed satellites");
  Table table({"failed sats", "BP reachable", "BP mean RTT (ms)",
               "hybrid reachable", "hybrid mean RTT (ms)"});
  for (size_t i = 0; i < bp_rows.size(); ++i) {
    table.AddRow({FormatDouble(bp_rows[i].failure_fraction * 100.0, 0) + "%",
                  FormatDouble(bp_rows[i].reachable_fraction * 100.0, 1) + "%",
                  FormatDouble(bp_rows[i].mean_rtt_ms, 1),
                  FormatDouble(hy_rows[i].reachable_fraction * 100.0, 1) + "%",
                  FormatDouble(hy_rows[i].mean_rtt_ms, 1)});
  }
  table.Print(std::cout);
  std::printf("\nboth modes re-route around failures thanks to the dense shell, "
              "but BP pays more added RTT per failed satellite — ISL path "
              "diversity absorbs the loss more cheaply.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
