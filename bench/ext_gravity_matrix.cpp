// Extension: uniform vs gravity-model traffic matrices. The paper samples
// city pairs uniformly; real demand concentrates between large metros.
// Gravity sampling (endpoints drawn population-proportionally) loads the
// network unevenly — and BP suffers more from it, because hot metros
// contend for the same GT-satellite cones while ISLs spread load in space.
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
  bench::PrintConfig(config, "Extension: uniform vs gravity traffic matrix");

  const std::vector<data::City> cities = bench::MakeCities(config);
  TrafficMatrixOptions matrix;
  matrix.num_pairs = config.num_pairs;
  matrix.seed = config.seed;
  const auto uniform_pairs = SampleCityPairs(cities, matrix);
  const auto gravity_pairs = SampleCityPairsGravity(cities, matrix);

  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(scenario,
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);

  PrintBanner(std::cout, "aggregate throughput (Gbps), k=1");
  Table table({"traffic matrix", "BP", "hybrid", "hybrid/BP"});
  // Adds the matrix's row and returns its hybrid/BP ratio.
  const auto row = [&](const char* name, const std::vector<CityPair>& pairs) {
    const double bp_gbps = RunThroughputStudy(bp, pairs, 1, 0.0).total_gbps;
    const double hy_gbps = RunThroughputStudy(hybrid, pairs, 1, 0.0).total_gbps;
    const double ratio = hy_gbps / std::max(bp_gbps, 1e-9);
    table.AddRow({name, FormatDouble(bp_gbps, 1), FormatDouble(hy_gbps, 1),
                  FormatDouble(ratio, 2)});
    return ratio;
  };
  const double uniform_ratio = row("uniform (paper)", uniform_pairs);
  const double gravity_ratio = row("gravity (population)", gravity_pairs);
  table.Print(std::cout);
  std::printf("\ndemand concentration hits the access links around mega-metros; "
              "the ISL advantage %s under the realistic matrix.\n",
              gravity_ratio >= uniform_ratio ? "persists (and typically widens)"
                                             : "narrows");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
