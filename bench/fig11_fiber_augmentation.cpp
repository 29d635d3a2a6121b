// Reproduces Fig. 11 (paper §8): "distributed GTs" — nearby smaller cities
// lend Paris their satellite visibility over terrestrial fiber, multiplying
// the metro's usable ground-satellite capacity.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/fiber_study.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "Fig. 11: Paris fiber-augmented satellite connectivity");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const SnapshotSchedule schedule = bench::MakeSchedule(config);
  // Paris + 5 nearby cities within 250 km.
  const FiberStudyResult result = RunFiberStudy(Scenario::Starlink(), cities, schedule);

  PrintBanner(std::cout, "per-city mean visible Starlink satellites");
  Table table({"city", "mean visible sats", "fiber latency to metro (ms)"});
  table.AddRow({result.metro.city, FormatDouble(result.metro.mean_visible_sats, 1),
                "0.00"});
  for (const FiberMemberStats& m : result.members) {
    table.AddRow({m.city, FormatDouble(m.mean_visible_sats, 1),
                  FormatDouble(m.fiber_latency_ms)});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "distributed-GT capacity gain");
  std::printf("distinct satellites visible: metro alone %.1f, group %.1f\n",
              result.metro_mean_distinct_sats, result.group_mean_distinct_sats);
  std::printf("satellite-diversity view: metro %.0f Gbps -> group %.0f Gbps "
              "(%.2fx gain)\n",
              result.metro_capacity_gbps, result.group_capacity_gbps,
              result.capacity_gain);
  std::printf("spectrum-reuse view (total GT-sat links): metro %.1f -> group "
              "%.1f links (%.2fx gain)\n",
              result.metro_mean_links, result.group_mean_links, result.link_gain);
  std::printf("\npaper: each nearby city contributes its own cone of satellite "
              "visibility, multiplying the contended ground-satellite spectrum "
              "available to the metro\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
