// Beam-budget ablation: the paper's evaluation lets every satellite serve
// every visible GT simultaneously ("software-defined frequency management
// will optimize towards this goal", §2). Real satellites have a finite
// beam count. This bench sweeps a per-satellite GT-link budget and shows
// how BP degrades faster than hybrid: BP needs many simultaneous GT links
// per satellite for its zig-zag transit, while hybrid only touches the
// ground at the endpoints.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/throughput_study.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  if (config.num_pairs > 300) {
    config.num_pairs = 300;
  }
  bench::PrintConfig(config, "Ablation: per-satellite beam budget (Starlink, k=1)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();

  PrintBanner(std::cout, "aggregate throughput vs beams per satellite (Gbps)");
  Table table({"beams/sat", "BP (Gbps)", "BP routed", "hybrid (Gbps)",
               "hybrid routed", "hybrid/BP"});
  for (const int beams : {0, 32, 16, 8, 4}) {
    NetworkOptions bp_options = bench::MakeOptions(config, ConnectivityMode::kBentPipe);
    bp_options.max_gt_links_per_satellite = beams;
    NetworkOptions hy_options = bench::MakeOptions(config, ConnectivityMode::kHybrid);
    hy_options.max_gt_links_per_satellite = beams;
    const NetworkModel bp(scenario, bp_options, cities);
    const NetworkModel hybrid(scenario, hy_options, cities);
    const auto bp_result = RunThroughputStudy(bp, pairs, 1, 0.0);
    const auto hy_result = RunThroughputStudy(hybrid, pairs, 1, 0.0);
    table.AddRow({beams == 0 ? "unlimited" : std::to_string(beams),
                  FormatDouble(bp_result.total_gbps, 1),
                  std::to_string(bp_result.pairs_routed),
                  FormatDouble(hy_result.total_gbps, 1),
                  std::to_string(hy_result.pairs_routed),
                  FormatDouble(hy_result.total_gbps /
                                   std::max(bp_result.total_gbps, 1e-9),
                               2)});
  }
  table.Print(std::cout);
  std::printf("\ntighter beam budgets prune the relay grid's connectivity "
              "first — BP's transit hops die before hybrid's endpoint "
              "links do.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
