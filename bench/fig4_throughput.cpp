// Reproduces Fig. 4 (paper §5): aggregate max-min-fair throughput for
// Starlink and Kuiper, BP vs hybrid, traffic split over k = 1 and 4
// edge-disjoint shortest paths — plus the §5 text statistic that 25-32% of
// Starlink satellites are disconnected under BP across a day.
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
  bench::PrintConfig(config, "Fig. 4: aggregate throughput (Starlink & Kuiper)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);

  PrintBanner(std::cout, "Fig. 4: aggregate throughput (Gbps), 20 Gbps GT-sat / 100 Gbps ISL");
  Table table({"constellation", "k", "BP (Gbps)", "hybrid (Gbps)", "hybrid/BP"});

  struct Cell {
    double bp, hybrid;
  };
  Cell cells[2][2];  // [scenario][k index]

  const Scenario scenarios[2] = {Scenario::Starlink(), Scenario::Kuiper()};
  for (int s = 0; s < 2; ++s) {
    const NetworkModel bp(scenarios[s],
                          bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                          cities);
    const NetworkModel hybrid(scenarios[s],
                              bench::MakeOptions(config, ConnectivityMode::kHybrid),
                              cities);
    const int ks[2] = {1, 4};
    for (int ki = 0; ki < 2; ++ki) {
      const auto bp_result = RunThroughputStudy(bp, pairs, ks[ki], 0.0);
      const auto hy_result = RunThroughputStudy(hybrid, pairs, ks[ki], 0.0);
      cells[s][ki] = {bp_result.total_gbps, hy_result.total_gbps};
      table.AddRow({scenarios[s].name, std::to_string(ks[ki]),
                    FormatDouble(bp_result.total_gbps, 1),
                    FormatDouble(hy_result.total_gbps, 1),
                    FormatDouble(hy_result.total_gbps /
                                     std::max(bp_result.total_gbps, 1e-9),
                                 2)});
    }
  }
  table.Print(std::cout);

  std::printf("\npaper: hybrid/BP > 2.5x at k=1, > 3.1x at k=4\n");
  std::printf("multipath gain (k=4 / k=1):\n");
  for (int s = 0; s < 2; ++s) {
    std::printf("  %-9s hybrid %.2fx (paper: %.2fx)   BP %.2fx (paper: %.2fx)\n",
                scenarios[s].name.c_str(),
                cells[s][1].hybrid / std::max(cells[s][0].hybrid, 1e-9),
                s == 0 ? 1.65 : 1.76,
                cells[s][1].bp / std::max(cells[s][0].bp, 1e-9),
                s == 0 ? 1.34 : 1.44);
  }

  PrintBanner(std::cout, "Paper §5 text: BP-disconnected Starlink satellites across a day");
  const NetworkModel bp_starlink(
      scenarios[0], bench::MakeOptions(config, ConnectivityMode::kBentPipe), cities);
  const SnapshotSchedule schedule = bench::MakeSchedule(config);
  const DisconnectionStats stats = RunDisconnectionStudy(bp_starlink, schedule);
  std::printf("disconnected satellite fraction: %.1f%% - %.1f%% "
              "(paper: 25.1%% - 31.5%% with a 0.5-deg grid)\n",
              stats.min_fraction * 100.0, stats.max_fraction * 100.0);
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
