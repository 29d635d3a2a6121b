// Extension: route-stability (churn) comparison. Fig. 2(b) shows RTT
// variation; this bench shows the routing churn underneath it: how often
// the shortest path changes between snapshots, how much of it survives
// (Jaccard similarity of consecutive node sets), and the RTT jitter.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/churn_study.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  if (config.num_pairs > 150) {
    config.num_pairs = 150;
  }
  bench::PrintConfig(config, "Extension: route churn, BP vs hybrid (Starlink)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const SnapshotSchedule schedule = bench::MakeSchedule(config);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(scenario,
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);

  const AggregateChurn bp_churn = RunAggregateChurnStudy(bp, pairs, schedule);
  const AggregateChurn hy_churn = RunAggregateChurnStudy(hybrid, pairs, schedule);

  PrintBanner(std::cout, "aggregate route churn across pairs");
  Table table({"mode", "path-change rate", "consecutive-path Jaccard",
               "RTT jitter (ms/step)", "pairs"});
  const auto add = [&](const char* name, const AggregateChurn& churn) {
    table.AddRow({name, FormatDouble(churn.mean_change_rate * 100.0, 1) + "%",
                  FormatDouble(churn.mean_jaccard, 3),
                  FormatDouble(churn.mean_rtt_jitter_ms, 2),
                  std::to_string(churn.pairs_evaluated)});
  };
  add("bent-pipe", bp_churn);
  add("hybrid", hy_churn);
  table.Print(std::cout);

  PrintBanner(std::cout, "the paper's example pair");
  const ChurnStats maceio = RunChurnStudy(bp, "Maceio", "Durban", schedule);
  std::printf("Maceio<->Durban (BP): %d path changes in %d snapshots, "
              "jitter %.1f ms/step\n",
              maceio.path_changes, maceio.snapshots, maceio.rtt_jitter_ms);
  std::printf("\nat 15-minute snapshots almost every step re-routes in both "
              "modes (satellites move ~4 orbital arcs between samples), but "
              "BP re-routes through different GROUND infrastructure — hence "
              "the much larger RTT jitter.\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
