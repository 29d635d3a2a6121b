// Extension: weather-outage resilience — the operational reading of §6.
// A system engineered with fade margin M dB loses every radio link whose
// attenuation exceeds M at the target availability. Sweeping M shows how
// the BP network shatters (every zig-zag bounce is a chance to hit a wet
// cell) while the hybrid network only needs its two endpoint links up.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/outage_study.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  if (config.num_pairs > 250) {
    config.num_pairs = 250;
  }
  bench::PrintConfig(config, "Extension: weather outages vs fade margin (Starlink)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(scenario,
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);

  const auto bp_rows = RunOutageStudy(bp, pairs);
  const auto hy_rows = RunOutageStudy(hybrid, pairs);

  PrintBanner(std::cout,
              "pair reachability when links above the fade margin drop (0.1% weather)");
  Table table({"margin (dB)", "links lost", "BP reachable", "BP RTT (ms)",
               "hybrid reachable", "hybrid RTT (ms)"});
  for (size_t i = 0; i < bp_rows.size(); ++i) {
    table.AddRow({FormatDouble(bp_rows[i].margin_db, 0),
                  FormatDouble(bp_rows[i].links_disabled_fraction * 100.0, 1) + "%",
                  FormatDouble(bp_rows[i].reachable_fraction * 100.0, 1) + "%",
                  FormatDouble(bp_rows[i].mean_rtt_ms, 1),
                  FormatDouble(hy_rows[i].reachable_fraction * 100.0, 1) + "%",
                  FormatDouble(hy_rows[i].mean_rtt_ms, 1)});
  }
  table.Print(std::cout);
  std::printf("\nthe hybrid network holds its pairs to much slimmer margins — "
              "the MODCOD headroom §6 says operators must budget shrinks when "
              "paths stay in space.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
