// Reproduces Fig. 10 (paper §8): without cross-shell ISLs, a sparse BP
// bounce at a ground station lets the Brisbane <-> Tokyo path switch
// between the 53-degree shell and a polar shell, cutting latency.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/multishell_study.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "Fig. 10: Brisbane<->Tokyo cross-shell BP transition");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const SnapshotSchedule schedule = bench::MakeSchedule(config);
  const MultishellResult result =
      RunMultishellStudy(Scenario::Starlink(), orbit::PolarShell(), cities,
                         "Brisbane", "Tokyo", schedule);

  PrintBanner(std::cout,
              "RTT: 53-deg shell alone vs two shells with BP transitions (ms)");
  Table table({"t (min)", "single shell (ms)", "dual shell+BP (ms)", "saving (ms)"});
  for (size_t i = 0; i < result.times_sec.size(); ++i) {
    const double single = result.single_shell_rtt_ms[i];
    const double dual = result.dual_shell_rtt_ms[i];
    const bool both = single < 1e17 && dual < 1e17;
    table.AddRow({FormatDouble(result.times_sec[i] / 60.0, 0),
                  single < 1e17 ? FormatDouble(single, 1) : "unreachable",
                  dual < 1e17 ? FormatDouble(dual, 1) : "unreachable",
                  both ? FormatDouble(single - dual, 1) : "-"});
  }
  table.Print(std::cout);

  std::printf("\nsnapshots improved by the second shell: %d/%zu; mean saving "
              "%.1f ms\n", result.improved_snapshots, result.times_sec.size(),
              result.mean_improvement_ms);
  std::printf("paper: cross-shell BP transitions achieve lower latency where the "
              "53-deg shell detours\n");
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
