// Snapshot-pipeline performance benchmark (tracked in BENCH_pipeline.json).
//
// Times the three layers that dominate every figure reproduction —
// snapshot construction, satellite-visibility queries (against the
// brute-force fallback too), and single-pair shortest paths — plus the end-to-end latency study (the paper's Fig. 2
// inner loop) whose wall-clock is the repo's headline perf number, once
// at the flags' scale and once (relay_grid_build, fig2_full_slot,
// relay_contract, relay_contract_masked) at the paper's, and one Fig. 4
// throughput slot (throughput_slot) at a fixed scale, and the ITU-R
// slant-path attenuation of one link. Run with fixed
// flags so successive JSON records are comparable:
//
//   bench_pipeline --pairs=100 --snapshots=4 --spacing=3
//
// The committed BENCH_pipeline.json at the repo root is the baseline for
// the CI perf-smoke job; refresh it (same flags, quiet machine) whenever
// a PR intentionally moves these numbers.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/net_trace.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "core/slot_router.hpp"
#include "core/throughput_study.hpp"
#include "flow/flow_network.hpp"
#include "flow/maxmin.hpp"
#include "geo/geodesic.hpp"
#include "graph/dijkstra.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/landmarks.hpp"
#include "graph/relay_contraction.hpp"
#include "ground/relay_grid.hpp"
#include "itur/slant_path.hpp"
#include "link/visibility.hpp"

namespace {

using namespace leosim;

uint64_t Splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Synthetic allocator workload shaped like a day's throughput slots:
// a few thousand shared links, each flow crossing a handful of them.
flow::FlowNetwork MakeFillNetwork(int num_links, int num_flows) {
  uint64_t rng = 20201104;
  flow::FlowNetwork net;
  for (int l = 0; l < num_links; ++l) {
    net.AddLink(20.0 + static_cast<double>(Splitmix64(rng) % 81));
  }
  std::vector<flow::LinkId> path;
  for (int f = 0; f < num_flows; ++f) {
    const int hops = 2 + static_cast<int>(Splitmix64(rng) % 7);
    path.clear();
    for (int h = 0; h < hops; ++h) {
      path.push_back(static_cast<flow::LinkId>(
          Splitmix64(rng) % static_cast<uint64_t>(num_links)));
    }
    net.AddFlow(path);
  }
  return net;
}

}  // namespace

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "snapshot-pipeline benchmark");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const core::Scenario scenario = core::Scenario::Starlink();
  const core::NetworkModel hybrid(
      scenario, bench::MakeOptions(config, core::ConnectivityMode::kHybrid), cities);
  const core::NetworkModel bent_pipe(
      scenario, bench::MakeOptions(config, core::ConnectivityMode::kBentPipe), cities);
  const std::vector<core::CityPair> pairs = bench::MakePairs(config, cities);

  bench::BenchSuite suite("pipeline");
  suite.AddConfig("constellation", "starlink-s1");
  suite.AddConfig("cities", std::to_string(cities.size()));
  suite.AddConfig("pairs", std::to_string(pairs.size()));
  suite.AddConfig("relay_spacing_deg", std::to_string(config.relay_spacing_deg));
  suite.AddConfig("snapshots", std::to_string(config.num_snapshots));
  // Machine context: records tracked in git get compared across checkouts,
  // and a number taken on a 4-core box is not comparable to one from CI's
  // single vCPU. host_cores is the hardware; threads is what the sweeps
  // actually used after LEOSIM_THREADS resolution (see parallel.hpp).
  suite.AddConfig("host_cores",
                  std::to_string(std::thread::hardware_concurrency()));
  suite.AddConfig("threads", std::to_string(core::DefaultWorkerCount()));

  // 1. Snapshot construction at rolling times (graph + ECEF + index + edges).
  {
    double t = 0.0;
    suite.Run("snapshot_build", 5, 4, [&] {
      for (int i = 0; i < 4; ++i) {
        const core::NetworkModel::Snapshot snap = hybrid.BuildSnapshot(t);
        t += 300.0;
        (void)snap;
      }
    });
  }

  // 1b. Snapshot rebuilds into a warm workspace at fine (10 s) spacing,
  //     as every sweep worker does: the same pipeline as snapshot_build
  //     but through the allocation-free workspace overload. Uses the
  //     no-aircraft model the fine sweeps below run, so this is their
  //     per-slot build cost in isolation. Any incremental snapshot path
  //     must beat this entry at every spacing before it can ship.
  core::NetworkOptions no_air_options =
      bench::MakeOptions(config, core::ConnectivityMode::kHybrid);
  no_air_options.use_aircraft = false;
  const core::NetworkModel no_air_model(scenario, no_air_options, cities);
  {
    core::NetworkModel::SnapshotWorkspace ws;
    double t = 0.0;
    // Warm build outside the timed region; each op is one rebuild.
    no_air_model.BuildSnapshot(t, &ws);
    suite.Run("snapshot_rebuild_ws", 5, 16, [&] {
      for (int i = 0; i < 16; ++i) {
        t += 10.0;
        no_air_model.BuildSnapshot(t, &ws);
      }
    });
  }

  // 1c. Propagation alone: the whole constellation through
  //     PositionsEcefInto into a reused buffer — the geometry front half
  //     of snapshot_build/snapshot_rebuild_ws in isolation.
  {
    std::vector<geo::Vec3> ecef;
    double t = 0.0;
    suite.Run("propagate", 7, 16, [&] {
      for (int i = 0; i < 16; ++i) {
        t += 10.0;
        hybrid.constellation().PositionsEcefInto(t, &ecef);
      }
    });
    std::printf("# propagate checksum: %.3f km (|sat 0|)\n", ecef[0].Norm());
  }

  // 2. Spatial-index build + visibility queries over every city terminal.
  {
    const std::vector<geo::Vec3> sats =
        hybrid.constellation().PositionsEcef(0.0);
    const double coverage =
        geo::CoverageRadiusKm(scenario.shell.altitude_km,
                              scenario.radio.min_elevation_deg);
    suite.Run("index_build", 7, 4, [&] {
      for (int i = 0; i < 4; ++i) {
        const link::SatelliteIndex index(sats, coverage + 100.0);
        (void)index;
      }
    });
    const link::SatelliteIndex index(sats, coverage + 100.0);
    std::vector<geo::Vec3> terminals;
    terminals.reserve(cities.size());
    for (const data::City& c : cities) {
      terminals.push_back(geo::GeodeticToEcef(c.Coord()));
    }
    size_t total_visible = 0;
    suite.Run("index_query", 7, static_cast<int64_t>(terminals.size()), [&] {
      for (const geo::Vec3& gt : terminals) {
        total_visible +=
            index.Visible(gt, scenario.radio.min_elevation_deg).size();
      }
    });
    std::printf("# visibility checksum: %zu sat-links\n", total_visible);

    // 2a. The same queries through the brute-force fallback, which
    //     elevation-tests every satellite: the index's speedup is this
    //     entry over index_query. Both must find the same links.
    size_t brute_visible = 0;
    suite.Run("index_query_brute", 7, static_cast<int64_t>(terminals.size()),
              [&] {
                brute_visible = 0;
                for (const geo::Vec3& gt : terminals) {
                  brute_visible += link::VisibleSatellitesBruteForce(
                                       gt, sats, scenario.radio.min_elevation_deg)
                                       .size();
                }
              });
    size_t index_visible = 0;
    for (const geo::Vec3& gt : terminals) {
      index_visible += index.Visible(gt, scenario.radio.min_elevation_deg).size();
    }
    std::printf("# index_query_brute checksum: %zu sat-links\n", brute_visible);
    if (brute_visible != index_visible) {
      std::fprintf(stderr,
                   "bench_pipeline: index_query_brute found %zu links, "
                   "index_query %zu\n",
                   brute_visible, index_visible);
      return 1;
    }

    // 2b. The fused query the snapshot builder actually runs: candidate
    //     gather + batch sine-form elevation test + slant ranges, into
    //     recycled buffers (no per-query sort, no allocation).
    std::vector<int> visible;
    std::vector<double> ranges;
    size_t batch_visible = 0;
    suite.Run("visibility_batch", 7, static_cast<int64_t>(terminals.size()),
              [&] {
                for (const geo::Vec3& gt : terminals) {
                  index.VisibleWithRangeInto(
                      gt, scenario.radio.min_elevation_deg, &visible, &ranges);
                  batch_visible += visible.size();
                }
              });
    std::printf("# visibility_batch checksum: %zu sat-links\n", batch_visible);
  }

  // 3. Single-pair shortest paths on one fixed snapshot.
  {
    core::NetworkModel::Snapshot snap = hybrid.BuildSnapshot(0.0);
    const int queries = 64;
    double checksum = 0.0;
    suite.Run("dijkstra_pair", 5, queries, [&] {
      for (int i = 0; i < queries; ++i) {
        const int a = i % snap.num_cities;
        const int b = (i * 7 + 41) % snap.num_cities;
        const auto path =
            graph::ShortestPath(snap.graph, snap.CityNode(a), snap.CityNode(b));
        if (path.has_value()) {
          checksum += path->distance;
        }
      }
    });
    std::printf("# dijkstra checksum: %.3f ms summed\n", checksum);

    // 3b. The same pair queries as the router's ALT tier answers them
    //     (core/slot_router.hpp): graph::RunAStar with landmark
    //     potentials on the snapshot's relay contraction, labels only.
    //     The contraction and the table (16 full Dijkstras, amortised
    //     across a slot's queries) are built outside the timed region.
    //     Contracted distances are the full graph's bit for bit, so the
    //     checksum must equal dijkstra_pair's.
    graph::RelayContraction contraction;
    contraction.Build(snap.graph, snap.num_sats + snap.num_cities);
    graph::DijkstraWorkspace alt_ws;
    graph::LandmarkTable table;
    table.Rebuild(contraction, alt_ws);
    double alt_checksum = 0.0;
    suite.Run("contracted_alt_pair", 5, queries, [&] {
      for (int i = 0; i < queries; ++i) {
        const int a = i % snap.num_cities;
        const int b = (i * 7 + 41) % snap.num_cities;
        const graph::NodeId dst = snap.CityNode(b);
        table.SetDestination(dst);
        const auto potential = [&table](graph::NodeId n) {
          return table.Potential(n);
        };
        if (graph::RunAStar(contraction, snap.CityNode(a), dst, alt_ws, potential)) {
          alt_checksum += alt_ws.DistanceOf(dst);
        }
      }
    });
    std::printf("# contracted_alt checksum: %.3f ms summed\n", alt_checksum);
    if (alt_checksum != checksum) {
      std::fprintf(stderr, "bench_pipeline: contracted_alt_pair checksum %.17g != "
                           "dijkstra_pair %.17g\n", alt_checksum, checksum);
      return 1;
    }

    // 3c. What a slot pays before its first ALT query: the compact
    //     landmark-table rebuild (component seeding, 16 landmark
    //     Dijkstras, float32 fill) on the relay contraction, which the
    //     per-slot router runs once per slot and mode when the slot
    //     routes at least kAltMinQueries reachable searches.
    graph::DijkstraWorkspace table_ws;
    graph::LandmarkTable rebuilt;
    suite.Run("contracted_alt_table_build", 5, 1,
              [&] { rebuilt.Rebuild(contraction, table_ws); });
    std::printf("# contracted_alt_table_build: %zu landmarks on %d nodes\n",
                rebuilt.landmarks().size(), contraction.NumNodes());

    // 3d. Paper §5's k = 4 greedy edge-disjoint paths for the same 64
    //     pairs: plain Dijkstra for every search (disjoint_pair), then
    //     as the throughput study runs them (router_disjoint_pair):
    //     RouteSlotDisjointPaths, whose contraction, tier choice and
    //     landmark table are timed with its searches. The router returns
    //     the plain overload's paths edge for edge, so both checksums
    //     (summed path latencies, in pair order) must match.
    constexpr int kDisjointPaths = 4;
    std::vector<core::CityPair> disjoint_pairs;
    for (int i = 0; i < queries; ++i) {
      disjoint_pairs.push_back({i % snap.num_cities, (i * 7 + 41) % snap.num_cities});
    }
    const auto path_sum = [](const std::vector<graph::Path>& paths) {
      double sum = 0.0;
      for (const graph::Path& path : paths) {
        sum += path.distance;
      }
      return sum;
    };
    graph::DijkstraWorkspace disjoint_ws;
    double plain_sum = 0.0;
    suite.Run("disjoint_pair", 5, queries, [&] {
      plain_sum = 0.0;
      for (const core::CityPair& p : disjoint_pairs) {
        plain_sum += path_sum(graph::KEdgeDisjointShortestPaths(
            snap.graph, snap.CityNode(p.a), snap.CityNode(p.b), kDisjointPaths,
            disjoint_ws));
      }
    });
    const std::vector<core::SourceGroup> groups =
        core::GroupPairsBySource(disjoint_pairs);
    core::SweepWorkspace router_ws;
    std::vector<std::vector<graph::Path>> routed;
    double router_sum = 0.0;
    suite.Run("router_disjoint_pair", 5, queries, [&] {
      core::RouteSlotDisjointPaths(snap, disjoint_pairs, groups, kDisjointPaths,
                                   &router_ws, &routed);
      router_sum = 0.0;
      for (const std::vector<graph::Path>& paths : routed) {
        router_sum += path_sum(paths);
      }
    });
    std::printf("# disjoint checksum: %.3f ms summed\n", plain_sum);
    if (router_sum != plain_sum) {
      std::fprintf(stderr, "bench_pipeline: router_disjoint_pair checksum %.17g != "
                           "disjoint_pair %.17g\n", router_sum, plain_sum);
      return 1;
    }
  }

  // 4. End-to-end latency study (Fig. 2 inner loop): BP + hybrid snapshots
  //    and every pair's shortest path at every timestep.
  {
    const core::SnapshotSchedule schedule = bench::MakeSchedule(config);
    suite.Run("latency_study_e2e", 5, 1, [&] {
      const core::LatencyStudyResult result =
          core::RunLatencyStudy(bent_pipe, hybrid, pairs, schedule);
      (void)result;
    });
  }

  // 4b. One paper-scale Fig. 2 slot at a fixed scale whatever the flags:
  //     1,000 cities, the 0.5 deg relay grid (61.5k nodes), 5,000 pairs,
  //     BP + hybrid. First (relay_grid_build) that relay grid alone,
  //     which every NetworkModel constructor builds. Then the router's
  //     relay contraction, tier choice and searches at the size the
  //     paper's --full run routes 96 times. Then (relay_contract) the
  //     contraction build alone, on that slot's hybrid snapshot: what
  //     every routed slot pays before its first search, and the
  //     bent-pipe contraction the latency study derives from it.
  {
    bench::BenchConfig full = config;
    full.num_cities = 1000;
    full.relay_spacing_deg = 0.5;
    full.aircraft_scale = 1.0;
    full.num_pairs = 5000;
    full.num_snapshots = 1;
    const std::vector<data::City> full_cities = bench::MakeCities(full);
    ground::RelayGridConfig grid;
    grid.spacing_deg = full.relay_spacing_deg;
    suite.Run("relay_grid_build", 5, 1, [&] {
      const std::vector<geo::GeodeticCoord> relays =
          ground::BuildRelayGrid(full_cities, grid);
      (void)relays;
    });
    const core::NetworkModel full_hybrid(
        scenario, bench::MakeOptions(full, core::ConnectivityMode::kHybrid),
        full_cities);
    const core::NetworkModel full_bent_pipe(
        scenario, bench::MakeOptions(full, core::ConnectivityMode::kBentPipe),
        full_cities);
    const std::vector<core::CityPair> full_pairs = bench::MakePairs(full, full_cities);
    const core::SnapshotSchedule schedule = bench::MakeSchedule(full);
    suite.Run("fig2_full_slot", 5, 1, [&] {
      const core::LatencyStudyResult result = core::RunLatencyStudy(
          full_bent_pipe, full_hybrid, full_pairs, schedule);
      (void)result;
    });

    core::NetworkModel::Snapshot snap = full_hybrid.BuildSnapshot(0.0);
    const int kept = snap.num_sats + snap.num_cities;
    graph::RelayContraction contraction;
    suite.Run("relay_contract", 5, 1, [&] { contraction.Build(snap.graph, kept); });
    std::printf("# relay_contract: %d nodes, %d arcs from %d nodes\n",
                contraction.NumNodes(), contraction.NumArcs(),
                snap.graph.NumNodes());

    // The same slot's ISL-masked bent-pipe contraction, as the latency
    // study gets it (relay_contract_masked: derived from the hybrid one,
    // which each rep rebuilds untimed) and as a full Build on the masked
    // graph would (relay_contract_masked_build). Both must hold the same
    // arcs and records.
    const auto set_isls = [&snap](bool enabled) {
      for (const graph::EdgeId e : snap.isl_edges) {
        snap.graph.SetEnabled(e, enabled);
      }
    };
    suite.Run(
        "relay_contract_masked", 5, 1,
        [&] {
          set_isls(true);
          contraction.Build(snap.graph, kept);
          set_isls(false);
        },
        [&] { contraction.DropDisabledDirectArcs(); });
    graph::RelayContraction masked_build;
    suite.Run("relay_contract_masked_build", 5, 1,
              [&] { masked_build.Build(snap.graph, kept); });
    set_isls(true);
    bool same = contraction.NumArcs() == masked_build.NumArcs();
    for (graph::EdgeId arc = 0; same && arc < masked_build.NumArcs(); ++arc) {
      const graph::ContractedArcRecord& a = contraction.Record(arc);
      const graph::ContractedArcRecord& b = masked_build.Record(arc);
      same = a.tail == b.tail && a.relay == b.relay && a.up == b.up && a.down == b.down;
    }
    std::printf("# relay_contract_masked: %d arcs\n", masked_build.NumArcs());
    if (!same) {
      std::fprintf(stderr,
                   "bench_pipeline: relay_contract_masked differs from a masked Build\n");
      return 1;
    }
  }

  // 4c. One Fig. 4 throughput slot at a fixed scale whatever the flags:
  //     1,000 cities, the 1 deg relay grid, 250 pairs, k = 4, hybrid,
  //     through RunThroughputStudy (snapshot build, the router's k
  //     disjoint paths per pair on the residual contraction, max-min
  //     allocation).
  {
    bench::BenchConfig slot = config;
    slot.num_cities = 1000;
    slot.relay_spacing_deg = 1.0;
    slot.aircraft_scale = 1.0;
    slot.num_pairs = 250;
    const std::vector<data::City> slot_cities = bench::MakeCities(slot);
    const core::NetworkModel slot_hybrid(
        scenario, bench::MakeOptions(slot, core::ConnectivityMode::kHybrid),
        slot_cities);
    const std::vector<core::CityPair> slot_pairs = bench::MakePairs(slot, slot_cities);
    suite.Run("throughput_slot", 5, 1, [&] {
      const core::ThroughputResult result =
          core::RunThroughputStudy(slot_hybrid, slot_pairs, 4, 0.0);
      (void)result;
    });
  }

  // 5. Snapshot-parallel temporal sweep: aggregate churn over the full
  //    schedule, which exercises the sweep driver, per-worker workspace
  //    reuse, and the one-to-many route batching in one number.
  {
    const core::SnapshotSchedule schedule = bench::MakeSchedule(config);
    suite.Run("temporal_sweep", 5, 1, [&] {
      const core::AggregateChurn churn =
          core::RunAggregateChurnStudy(hybrid, pairs, schedule);
      (void)churn;
    });
  }

  // 5b. The same sweep at fine spacing (10 s slots) on the no-aircraft
  //     model: 60 cheap snapshots and little routing per slot, so this
  //     is the end-to-end cost of snapshot construction in a sweep.
  {
    core::SnapshotSchedule fine;
    fine.step_sec = 10.0;
    fine.duration_sec = 10.0 * 60.0;  // 60 slots
    suite.Run("temporal_sweep_fine", 5, 1, [&] {
      const core::AggregateChurn churn =
          core::RunAggregateChurnStudy(no_air_model, pairs, fine);
      (void)churn;
    });
  }

  // 5c. The fine sweep with network-state trace capture + serialization
  //     on: the delta against temporal_sweep_fine is the all-in cost of
  //     producing an emulation-grade trace (per-slot captures from the
  //     parallel workers, diffing, and JSONL encoding of both streams).
  {
    core::SnapshotSchedule fine;
    fine.step_sec = 10.0;
    fine.duration_sec = 10.0 * 60.0;  // 60 slots
    core::NetTraceRecorder& net_trace = core::NetTraceRecorder::Global();
    size_t trace_bytes = 0;
    suite.Run("nettrace_sweep_fine", 5, 1, [&] {
      net_trace.Reset();
      net_trace.Enable(true);
      const core::AggregateChurn churn =
          core::RunAggregateChurnStudy(no_air_model, pairs, fine);
      (void)churn;
      trace_bytes =
          net_trace.NetStateJsonl().size() + net_trace.NetEventsJsonl().size();
    });
    net_trace.Enable(false);
    net_trace.Reset();
    std::printf("# nettrace checksum: %zu bytes serialized\n", trace_bytes);
  }

  // 5c'. Trace export alone, as `leosim_cli trace` runs it after the
  //      sweep: replay validation plus streaming both files to disk, on
  //      one pre-captured 60-slot, 10 s sweep.
  {
    core::SnapshotSchedule fine;
    fine.step_sec = 10.0;
    fine.duration_sec = 10.0 * 60.0;  // 60 slots
    core::NetTraceRecorder& net_trace = core::NetTraceRecorder::Global();
    net_trace.Reset();
    net_trace.Enable(true);
    (void)core::RunAggregateChurnStudy(no_air_model, pairs, fine);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("leosim_nettrace_export_" + std::to_string(getpid()));
    bool ok = true;
    suite.Run("nettrace_export", 5, 1, [&] {
      std::string why;
      const bool valid = net_trace.ValidateReplay(&why);
      const bool written = net_trace.WriteTo(dir.string());
      ok = ok && valid && written;
    });
    std::error_code ec;
    const uintmax_t bytes =
        std::filesystem::file_size(dir / "netstate.jsonl", ec) +
        std::filesystem::file_size(dir / "netevents.jsonl", ec);
    std::filesystem::remove_all(dir, ec);
    net_trace.Enable(false);
    net_trace.Reset();
    std::printf("# nettrace_export: %s, %ju bytes written\n",
                ok ? "validated" : "FAILED", bytes);
  }

  // 6. Max-min fair allocation on a synthetic slot-sized flow network
  //    (progressive filling is the throughput study's serial tail).
  {
    const flow::FlowNetwork fill_net = MakeFillNetwork(2000, 5000);
    double fill_checksum = 0.0;
    suite.Run("maxmin_fill", 5, 1, [&] {
      fill_checksum = flow::MaxMinFairAllocate(fill_net).total_gbps;
    });
    std::printf("# maxmin checksum: %.3f Gbps total\n", fill_checksum);
  }

  // 7. ITU-R slant-path attenuation (gas, cloud, rain, scintillation) of
  //    one Ku-band link: the per-link cost of the attenuation and outage
  //    studies.
  {
    const itur::SlantPathConfig link_config{14.25, 0.7, 0.5};
    const geo::GeodeticCoord gt{5.0, 110.0, 0.0};
    const int iters = 10000;
    double attenuation_db = 0.0;
    suite.Run("slant_path_attenuation", 5, iters, [&] {
      attenuation_db = 0.0;
      for (int i = 0; i < iters; ++i) {
        attenuation_db += itur::SlantPathAttenuationDb(gt, 35.0, link_config, 0.5);
      }
    });
    std::printf("# slant_path_attenuation: %.6f dB per link\n",
                attenuation_db / iters);
  }

  const bool wrote = suite.WriteJson("BENCH_pipeline.json");
  const int rc = bench::WriteObsOutputs(config);
  return wrote ? rc : 1;
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
