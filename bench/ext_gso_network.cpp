// Extension: network-level GSO arc-avoidance impact (paper §7 argues the
// reduced field of view hits BP much harder than hybrid because
// cross-hemisphere BP traffic must bounce through equatorial GTs; Fig. 9
// only shows the geometry — this measures the end-to-end effect).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/gso_network_study.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  if (config.num_pairs > 300) {
    config.num_pairs = 300;  // 4 model builds with per-link GSO checks
  }
  bench::PrintConfig(config, "Extension: GSO exclusion, network level");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> all_pairs = bench::MakePairs(config, cities);
  std::vector<CityPair> pairs = CrossHemispherePairs(cities, all_pairs);
  if (pairs.size() > 60u) {
    pairs.resize(60);
  }
  std::printf("cross-hemisphere pairs evaluated: %zu\n", pairs.size());

  NetworkOptions base;
  base.relay_spacing_deg = config.relay_spacing_deg;
  base.aircraft_scale = config.aircraft_scale;
  const GsoNetworkResult result =
      RunGsoNetworkStudy(Scenario::Starlink(), cities, pairs, base);

  PrintBanner(std::cout, "effect of applying the 22-deg GSO exclusion to radio links");
  Table table({"mode", "reachable (no excl)", "reachable (excl)",
               "mean RTT no excl (ms)", "mean RTT excl (ms)", "inflation (ms)"});
  const auto add = [&](const char* name, const GsoModeImpact& impact) {
    table.AddRow({name, std::to_string(impact.reachable_without_exclusion),
                  std::to_string(impact.reachable_with_exclusion),
                  FormatDouble(impact.mean_rtt_without_ms, 1),
                  FormatDouble(impact.mean_rtt_with_ms, 1),
                  FormatDouble(impact.MeanRttInflationMs(), 1)});
  };
  add("bent-pipe", result.bent_pipe);
  add("hybrid", result.hybrid);
  table.Print(std::cout);

  std::printf("\npaper §7: BP cross-hemisphere paths depend on equatorial GTs "
              "whose sky the exclusion shreds; hybrid paths only lose "
              "source/destination links near the Equator.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
