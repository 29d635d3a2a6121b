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

  const auto bp_rows = RunFailureStudy(bp, pairs);
  const auto hy_rows = RunFailureStudy(hybrid, pairs);

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
  // The claim below holds when BP's mean RTT rises more than hybrid's
  // from the table's first row (no failures) to its last.
  const FailureRow& bp_first = bp_rows.front();
  const FailureRow& bp_last = bp_rows.back();
  const FailureRow& hy_first = hy_rows.front();
  const FailureRow& hy_last = hy_rows.back();
  if (bp_last.mean_rtt_ms - bp_first.mean_rtt_ms >
      hy_last.mean_rtt_ms - hy_first.mean_rtt_ms) {
    std::printf("\nboth modes re-route around failures thanks to the dense shell, "
                "but BP pays more added RTT per failed satellite — ISL path "
                "diversity absorbs the loss more cheaply.\n");
  } else {
    std::printf("\nboth modes re-route around failures thanks to the dense shell; "
                "from %.0f%% to %.0f%% failed, BP's mean RTT goes %.1f -> %.1f ms "
                "and hybrid's %.1f -> %.1f ms, so this scale does not show BP "
                "paying more added RTT per failed satellite.\n",
                bp_first.failure_fraction * 100.0, bp_last.failure_fraction * 100.0,
                bp_first.mean_rtt_ms, bp_last.mean_rtt_ms, hy_first.mean_rtt_ms,
                hy_last.mean_rtt_ms);
  }
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
