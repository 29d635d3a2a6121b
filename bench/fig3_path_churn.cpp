// Reproduces Fig. 3 (paper §4): the Maceio (Brazil) <-> Durban (South
// Africa) bent-pipe path changes drastically with aircraft availability —
// sparse south-Atlantic air traffic forces long detours via the north
// Atlantic, inflating RTT by up to ~100 ms.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/report.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "Fig. 3: Maceio<->Durban BP path churn (Starlink)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const NetworkModel bp(Scenario::Starlink(),
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(Scenario::Starlink(),
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);
  const SnapshotSchedule schedule = bench::MakeSchedule(config);

  const auto bp_trace = TracePairPath(bp, "Maceio", "Durban", schedule);
  const auto hy_trace = TracePairPath(hybrid, "Maceio", "Durban", schedule);

  PrintBanner(std::cout, "BP path over time (northern detours make RTT spike)");
  Table table({"t (min)", "BP RTT (ms)", "hybrid RTT (ms)", "aircraft hops",
               "relay hops", "max path lat (deg)"});
  double bp_min = 1e18;
  double bp_max = 0.0;
  int detours = 0;
  for (size_t i = 0; i < bp_trace.size(); ++i) {
    const PathObservation& obs = bp_trace[i];
    const PathObservation& hy = hy_trace[i];
    if (obs.reachable) {
      bp_min = std::min(bp_min, obs.rtt_ms);
      bp_max = std::max(bp_max, obs.rtt_ms);
      // Both endpoints are in the southern hemisphere; a path node in the
      // northern mid-latitudes means a north-Atlantic detour.
      if (obs.max_node_latitude_deg > 15.0) {
        ++detours;
      }
    }
    table.AddRow({FormatDouble(obs.time_sec / 60.0, 0),
                  obs.reachable ? FormatDouble(obs.rtt_ms, 1) : "unreachable",
                  hy.reachable ? FormatDouble(hy.rtt_ms, 1) : "unreachable",
                  std::to_string(obs.aircraft_hops), std::to_string(obs.relay_hops),
                  obs.reachable ? FormatDouble(obs.max_node_latitude_deg, 1) : "-"});
  }
  table.Print(std::cout);

  if (bp_max > 0.0) {
    std::printf("\nBP RTT inflation over the trace: %.1f ms (paper: ~100 ms); "
                "snapshots with a northern detour: %d/%zu\n",
                bp_max - bp_min, detours, bp_trace.size());
  } else {
    std::printf("\nBP path never reachable at this scale; rerun with "
                "--aircraft=2 or --spacing=1.5\n");
  }
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
