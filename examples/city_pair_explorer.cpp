// Compares bent-pipe vs hybrid connectivity for one city pair across a
// stretch of simulated time: RTT, path composition, and the detour
// behaviour the paper's Fig. 3 highlights.
//
//   ./city_pair_explorer [cityA] [cityB] [hours]   (default: Maceio Durban 2)
#include <cstdio>
#include <iostream>

#include "core/cli_flags.hpp"
#include "core/latency_study.hpp"
#include "core/report.hpp"
#include "data/cities.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const std::string city_a = argc > 1 ? argv[1] : "Maceio";
  const std::string city_b = argc > 2 ? argv[2] : "Durban";
  const double hours =
      argc > 3 ? core::ParseDouble("hours", argv[3], 0.01, 8760.0) : 2.0;

  NetworkOptions bp_options;
  bp_options.mode = ConnectivityMode::kBentPipe;
  bp_options.relay_spacing_deg = 3.0;
  NetworkOptions hybrid_options = bp_options;
  hybrid_options.mode = ConnectivityMode::kHybrid;

  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario, bp_options, data::AnchorCities());
  const NetworkModel hybrid(scenario, hybrid_options, data::AnchorCities());

  SnapshotSchedule schedule;
  schedule.duration_sec = hours * 3600.0;
  schedule.step_sec = 900.0;

  const auto bp_trace = TracePairPath(bp, city_a, city_b, schedule);
  const auto hy_trace = TracePairPath(hybrid, city_a, city_b, schedule);

  std::printf("%s <-> %s under Starlink, %.1f h at 15-min snapshots\n",
              city_a.c_str(), city_b.c_str(), hours);
  Table table({"t (min)", "BP RTT (ms)", "hybrid RTT (ms)", "BP sat hops",
               "BP aircraft", "BP relays", "BP max lat"});
  for (size_t i = 0; i < bp_trace.size(); ++i) {
    const PathObservation& o = bp_trace[i];
    const PathObservation& h = hy_trace[i];
    table.AddRow({FormatDouble(o.time_sec / 60.0, 0),
                  o.reachable ? FormatDouble(o.rtt_ms, 1) : "unreachable",
                  h.reachable ? FormatDouble(h.rtt_ms, 1) : "unreachable",
                  std::to_string(o.satellite_hops), std::to_string(o.aircraft_hops),
                  std::to_string(o.relay_hops),
                  o.reachable ? FormatDouble(o.max_node_latitude_deg, 1) : "-"});
  }
  table.Print(std::cout);
  std::printf("\nBP paths bounce through ground relays and aircraft; hybrid "
              "paths ride laser ISLs and stay short and stable.\n");
  return 0;
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
