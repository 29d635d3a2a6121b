// leosim_cli — a small command-line front end over the library, the way a
// downstream user would poke at the system without writing code.
//
//   leosim_cli route <cityA> <cityB> [--bp]        shortest path + RTT
//   leosim_cli visible <city>                      satellites in view now
//   leosim_cli attenuation <city> [freq_ghz]       ITU-R budget at the site
//   leosim_cli pairs <count>                       sample a traffic matrix
//   leosim_cli cities [substring]                  list known cities
//   leosim_cli study latency [flags]               small latency study run
//   leosim_cli trace [flags]                       netstate/netevents export
//
// Global flags (any command, any position): the shared observability
// flags of core::ObsFlags plus --trace-net-out=DIR. Bad input exits 2
// with one stderr line; a failed output write exits 1.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/attenuation_study.hpp"
#include "core/churn_study.hpp"
#include "core/cli_flags.hpp"
#include "core/latency_study.hpp"
#include "core/net_trace.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "geo/geodesic.hpp"
#include "graph/dijkstra.hpp"
#include "itur/slant_path.hpp"
#include "link/visibility.hpp"

using namespace leosim;

namespace {

int Usage() {
  std::printf(
      "usage: leosim_cli <command> [args]\n"
      "  route <cityA> <cityB> [--bp]   shortest path + RTT (hybrid default)\n"
      "  visible <city>                 satellites visible right now\n"
      "  attenuation <city> [freq_ghz]  ITU-R attenuation budget\n"
      "  pairs <count>                  sample a >2000 km traffic matrix\n"
      "  cities [substring]             list known cities\n"
      "  study latency [--pairs=N] [--snapshots=N] [--step=SEC]\n"
      "                [--spacing=DEG]\n"
      "                                 run a small BP-vs-hybrid latency study\n"
      "  trace [--bp] [--pairs=N] [--snapshots=N] [--step=SEC]\n"
      "        [--spacing=DEG] [--out=DIR]\n"
      "                                 export + validate a netstate/netevents\n"
      "                                 trace (route-churn sweep)\n"
      "global flags: %s\n"
      "              --trace-net-out=DIR (netstate/netevents export from any\n"
      "              study command)\n",
      core::ObsFlags::kUsage);
  return 2;
}

// --pairs/--snapshots/--step/--spacing, shared by `study latency` and
// `trace`; the defaults are each command's own.
struct SweepFlags {
  int num_pairs;
  int num_snapshots;
  double step_sec;
  double spacing_deg = 3.0;

  bool Take(std::string_view arg) {
    if (const auto v = core::FlagValue(arg, "--pairs")) {
      num_pairs = core::ParseInt("--pairs", *v, 1, 1000000);
    } else if (const auto v = core::FlagValue(arg, "--snapshots")) {
      num_snapshots = core::ParseInt("--snapshots", *v, 1, 1000000);
    } else if (const auto v = core::FlagValue(arg, "--step")) {
      step_sec = core::ParseDouble("--step", *v, 0.001, 1e7);
    } else if (const auto v = core::FlagValue(arg, "--spacing")) {
      spacing_deg = core::ParseDouble("--spacing", *v, 0.1, 90.0);
    } else {
      return false;
    }
    return true;
  }

  std::vector<core::CityPair> Pairs(const std::vector<data::City>& cities) const {
    core::TrafficMatrixOptions traffic;
    traffic.num_pairs = num_pairs;
    return core::SampleCityPairs(cities, traffic);
  }

  core::SnapshotSchedule Schedule() const {
    core::SnapshotSchedule schedule;
    schedule.step_sec = step_sec;
    schedule.duration_sec = step_sec * num_snapshots;
    return schedule;
  }
};

int CmdRoute(const std::string& a, const std::string& b, bool bent_pipe) {
  core::NetworkOptions options;
  options.mode =
      bent_pipe ? core::ConnectivityMode::kBentPipe : core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 3.0;
  const core::NetworkModel model(core::Scenario::Starlink(), options,
                                 data::AnchorCities());
  const int ia = model.CityIndex(a);
  const int ib = model.CityIndex(b);
  const auto snap = model.BuildSnapshot(0.0);
  const auto path =
      graph::ShortestPath(snap.graph, snap.CityNode(ia), snap.CityNode(ib));
  if (!path.has_value()) {
    std::printf("%s and %s are not connected under %s connectivity\n", a.c_str(),
                b.c_str(), bent_pipe ? "bent-pipe" : "hybrid");
    return 1;
  }
  std::printf("%s -> %s (%s): RTT %.1f ms, %d hops\n", a.c_str(), b.c_str(),
              bent_pipe ? "bent-pipe" : "hybrid", 2.0 * path->distance,
              path->HopCount());
  int sats = 0;
  int ground = 0;
  for (const graph::NodeId n : path->nodes) {
    if (snap.IsSat(n)) {
      ++sats;
    } else if (n != snap.CityNode(ia) && n != snap.CityNode(ib)) {
      ++ground;
    }
  }
  std::printf("  %d satellites, %d intermediate ground hops\n", sats, ground);
  return 0;
}

int CmdVisible(const std::string& name) {
  const data::City& city = data::FindCity(name);
  const core::Scenario scenario = core::Scenario::Starlink();
  const auto constellation = orbit::Constellation::WalkerDelta(scenario.shell);
  const auto sats = constellation.PositionsEcef(0.0);
  const link::SatelliteIndex index(
      sats, geo::CoverageRadiusKm(scenario.shell.altitude_km,
                                  scenario.radio.min_elevation_deg) +
                100.0);
  const geo::Vec3 gt = geo::GeodeticToEcef(city.Coord());
  const auto visible = index.Visible(gt, scenario.radio.min_elevation_deg);
  std::printf("%s sees %zu Starlink satellites (e >= %.0f deg):\n", name.c_str(),
              visible.size(), scenario.radio.min_elevation_deg);
  for (const int sat : visible) {
    const auto id = constellation.IdOf(sat);
    std::printf("  sat %4d (plane %2d slot %2d): elevation %5.1f deg, range %6.0f km\n",
                sat, id.plane, id.slot,
                geo::ElevationAngleDeg(gt, sats[static_cast<size_t>(sat)]),
                gt.DistanceTo(sats[static_cast<size_t>(sat)]));
  }
  return 0;
}

int CmdAttenuation(const std::string& name, double freq) {
  const data::City& city = data::FindCity(name);
  itur::SlantPathConfig config;
  config.frequency_ghz = freq;
  std::printf("%s at %.2f GHz, 30 deg elevation:\n", name.c_str(), freq);
  for (const double p : {1.0, 0.5, 0.1, 0.01}) {
    const auto b = itur::SlantPathAttenuation(city.Coord(), 30.0, config, p);
    std::printf("  %5.2f%% exceedance: %.2f dB total "
                "(gas %.2f, cloud %.2f, rain %.2f, scint %.2f)\n",
                p, b.total_db, b.gas_db, b.cloud_db, b.rain_db,
                b.scintillation_db);
  }
  return 0;
}

int CmdPairs(int count) {
  core::TrafficMatrixOptions options;
  options.num_pairs = count;
  const auto& cities = data::AnchorCities();
  const auto pairs = core::SampleCityPairs(cities, options);
  for (const core::CityPair& p : pairs) {
    const auto& a = cities[static_cast<size_t>(p.a)];
    const auto& b = cities[static_cast<size_t>(p.b)];
    std::printf("%-20s %-20s %6.0f km\n", a.name.c_str(), b.name.c_str(),
                geo::GreatCircleDistanceKm(a.Coord(), b.Coord()));
  }
  return 0;
}

// Scaled-down latency study (paper Fig. 2 inner loop): BP vs hybrid
// min-RTT over a short schedule. Small defaults keep it interactive;
// with --metrics-out/--trace-out it doubles as the observability demo.
int CmdStudyLatency(const std::vector<std::string>& args) {
  SweepFlags sweep{10, 2, 60.0};
  for (const std::string& arg : args) {
    if (!sweep.Take(arg)) {
      throw std::invalid_argument("study latency: unknown flag " + arg);
    }
  }

  const core::Scenario scenario = core::Scenario::Starlink();
  const std::vector<data::City>& cities = data::AnchorCities();
  core::NetworkOptions options;
  options.relay_spacing_deg = sweep.spacing_deg;
  options.mode = core::ConnectivityMode::kBentPipe;
  const core::NetworkModel bent_pipe(scenario, options, cities);
  options.mode = core::ConnectivityMode::kHybrid;
  const core::NetworkModel hybrid(scenario, options, cities);

  const std::vector<core::CityPair> pairs = sweep.Pairs(cities);
  const core::LatencyStudyResult result =
      core::RunLatencyStudy(bent_pipe, hybrid, pairs, sweep.Schedule());

  const auto mean_min_rtt = [&result](const std::vector<core::PairRttSeries>& s) {
    const std::vector<double> values = result.MinRtts(s);
    double sum = 0.0;
    for (const double v : values) {
      sum += v;
    }
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  std::printf("latency study: %zu pairs x %zu snapshots\n", pairs.size(),
              result.snapshot_times.size());
  std::printf("  bent-pipe mean min-RTT: %7.1f ms\n", mean_min_rtt(result.bp));
  std::printf("  hybrid    mean min-RTT: %7.1f ms\n", mean_min_rtt(result.hybrid));
  int queries = 0;
  int unreachable = 0;
  for (const std::vector<core::PairRttSeries>* series : {&result.bp, &result.hybrid}) {
    for (const core::PairRttSeries& s : *series) {
      queries += static_cast<int>(s.rtt_ms.size());
      unreachable += s.UnreachableCount();
    }
  }
  std::printf("  routed %d pair-snapshots, %d unreachable\n",
              queries - unreachable, unreachable);
  return 0;
}

// Exports a network-state trace from a route-churn sweep and proves the
// replay invariant before reporting success: slot 0's full state plus
// the per-slot event stream must reproduce every later slot bit for
// bit. The files land as DIR/netstate.jsonl and DIR/netevents.jsonl,
// ready for tools/trace_check.py or a downstream emulator.
int CmdTrace(const std::vector<std::string>& args) {
  bool bent_pipe = false;
  SweepFlags sweep{5, 10, 10.0};
  std::string out_dir = "nettrace";
  for (const std::string& arg : args) {
    if (sweep.Take(arg)) {
      continue;
    }
    if (arg == "--bp") {
      bent_pipe = true;
    } else if (const auto v = core::FlagValue(arg, "--out")) {
      out_dir = *v;
    } else {
      throw std::invalid_argument("trace: unknown flag " + arg);
    }
  }

  const std::vector<data::City>& cities = data::AnchorCities();
  core::NetworkOptions options;
  options.relay_spacing_deg = sweep.spacing_deg;
  options.mode = bent_pipe ? core::ConnectivityMode::kBentPipe
                           : core::ConnectivityMode::kHybrid;
  const core::NetworkModel model(core::Scenario::Starlink(), options, cities);

  core::NetTraceRecorder& recorder = core::NetTraceRecorder::Global();
  recorder.Enable(true);
  core::RunAggregateChurnStudy(model, sweep.Pairs(cities), sweep.Schedule());

  std::string why;
  if (!recorder.ValidateReplay(&why)) {
    std::fprintf(stderr, "trace replay validation FAILED: %s\n", why.c_str());
    return 1;
  }
  if (!recorder.WriteTo(out_dir)) {
    std::fprintf(stderr, "cannot write trace files under %s\n", out_dir.c_str());
    return 1;
  }
  std::printf("trace: %d slots (%s), replay validated\n", recorder.NumSlots(),
              bent_pipe ? "bent-pipe" : "hybrid");
  std::fprintf(stderr, "wrote %s/netstate.jsonl and %s/netevents.jsonl\n",
               out_dir.c_str(), out_dir.c_str());
  return 0;
}

int CmdCities(const std::string& filter) {
  int shown = 0;
  for (const data::City& c : data::AnchorCities()) {
    if (!filter.empty() && c.name.find(filter) == std::string::npos) {
      continue;
    }
    std::printf("%-24s %7.2f %8.2f  pop %.0fk\n", c.name.c_str(), c.latitude_deg,
                c.longitude_deg, c.population_k);
    ++shown;
  }
  std::printf("(%d cities)\n", shown);
  return 0;
}

// Dispatches one command; an argument a command does not take is an
// error, not silently ignored.
int Dispatch(const std::vector<std::string>& args) {
  const std::string command = args.empty() ? "" : args[0];
  const size_t n = args.size();
  // study and trace parse their own flags. Every other command takes
  // positional arguments only (route's trailing --bp aside), so a "--"
  // argument is a mistyped flag, not a city name or a filter.
  if (command != "study" && command != "trace") {
    for (size_t i = 1; i < n; ++i) {
      const bool route_bp = command == "route" && i == 3 && args[i] == "--bp";
      if (args[i].starts_with("--") && !route_bp) {
        throw std::invalid_argument(command + ": unknown flag " + args[i]);
      }
    }
  }
  const auto arity = [&](size_t lo, size_t hi) {
    if (n > hi) {
      throw std::invalid_argument(command + ": unexpected argument " + args[hi]);
    }
    return n >= lo;
  };
  if (command == "route" && arity(3, 4)) {
    if (n == 4 && args[3] != "--bp") {
      throw std::invalid_argument("route: unknown flag " + args[3]);
    }
    return CmdRoute(args[1], args[2], n == 4);
  }
  if (command == "visible" && arity(2, 2)) {
    return CmdVisible(args[1]);
  }
  if (command == "attenuation" && arity(2, 3)) {
    return CmdAttenuation(
        args[1], n == 3 ? core::ParseDouble("freq_ghz", args[2], 1.0, 100.0)
                        : 14.25);
  }
  if (command == "pairs" && arity(2, 2)) {
    return CmdPairs(core::ParseInt("count", args[1], 0, 1000000));
  }
  if (command == "cities" && arity(1, 2)) {
    return CmdCities(n == 2 ? args[1] : "");
  }
  if (command == "study" && n >= 2 && args[1] == "latency") {
    return CmdStudyLatency({args.begin() + 2, args.end()});
  }
  if (command == "trace") {
    return CmdTrace({args.begin() + 1, args.end()});
  }
  if (command.starts_with("--")) {
    throw std::invalid_argument("unknown flag " + command);
  }
  return Usage();
}

int Run(int argc, char** argv) {
  // Peel off the global flags (any position); everything else
  // dispatches positionally.
  core::ObsFlags obs_flags;
  std::string trace_net_out;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (obs_flags.Take(arg)) {
      continue;
    }
    if (const auto v = core::FlagValue(arg, "--trace-net-out")) {
      trace_net_out = *v;
      core::NetTraceRecorder::Global().Enable(true);
    } else {
      args.emplace_back(arg);
    }
  }
  obs_flags.Apply();

  int rc = Dispatch(args);
  const int write_rc = obs_flags.WriteOutputs("");
  rc = rc == 0 ? write_rc : rc;
  if (!trace_net_out.empty()) {
    if (core::NetTraceRecorder::Global().WriteTo(trace_net_out)) {
      std::fprintf(stderr, "wrote %s/netstate.jsonl and %s/netevents.jsonl\n",
                   trace_net_out.c_str(), trace_net_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace files under %s\n",
                   trace_net_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
