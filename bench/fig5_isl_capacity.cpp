// Reproduces Fig. 5 (paper §5): Starlink k=4 throughput as ISL capacity
// sweeps from 0.5x to 5x of the 20 Gbps GT-satellite capacity. Even at
// 0.5x the hybrid approach beats BP (2.2x in the paper) thanks to path
// diversity, and gains flatten beyond ~3x with shortest-path routing.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/throughput_study.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "Fig. 5: Starlink throughput vs ISL capacity (k=4)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();

  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const double bp_gbps = RunThroughputStudy(bp, pairs, 4, 0.0).total_gbps;

  PrintBanner(std::cout, "Fig. 5: hybrid throughput vs ISL capacity (k=4)");
  Table table({"ISL capacity (x GT-sat)", "ISL Gbps/link", "hybrid (Gbps)",
               "hybrid/BP"});
  SweepWorkspace ws;
  std::vector<std::vector<graph::Path>> paths;
  bool routed = false;
  for (const double ratio : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0}) {
    Scenario swept = scenario;
    swept.isl.capacity_gbps = ratio * scenario.radio.capacity_gbps;
    const NetworkModel hybrid(
        swept, bench::MakeOptions(config, ConnectivityMode::kHybrid), cities);
    // Routing reads delays and the edge mask only, so the first ratio's
    // paths serve every ratio: each model builds the same edges with its
    // own ISL capacity, and the allocation reads them from its snapshot.
    const NetworkModel::Snapshot& snap =
        routed ? hybrid.BuildSnapshot(0.0, &ws.snapshot)
               : RouteThroughputPaths(hybrid, pairs, 4, 0.0, &ws, &paths);
    routed = true;
    const double gbps =
        ThroughputOf(FlowsFromPaths(snap.graph, paths, CapacityModel::kSharedPerLink))
            .total_gbps;
    table.AddRow({FormatDouble(ratio, 1), FormatDouble(swept.isl.capacity_gbps, 0),
                  FormatDouble(gbps, 1),
                  FormatDouble(gbps / std::max(bp_gbps, 1e-9), 2)});
  }
  table.Print(std::cout);
  std::printf("\nBP baseline (k=4): %.1f Gbps\n", bp_gbps);
  std::printf("paper: 0.5x ISL capacity already gives 2.2x BP; gains flatten "
              "beyond ~3x (routing artefact)\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
