// Property tests for the goal-directed k edge-disjoint shortest paths
// (graph/disjoint_paths.hpp) and the throughput study that runs them
// through the per-slot router (core/slot_router.hpp). On bent-pipe and
// hybrid snapshots at t = 0 and t = 2700 s, for k = 1 and 4 and with
// both A* potentials the router uses (landmark table, Euclidean latency
// bound), every pair's paths must equal the plain overload's edge for
// edge and leave every edge's enabled flag and half-edge weights as they
// were; the study's totals and sub-flow counts must equal the per-pair
// plain-Dijkstra oracle RunThroughputWithPolicy(kDisjointGreedy) bit for
// bit. The t = 0 snapshots hold exact ties, so the A* tie guard must
// fire along the way.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/network_builder.hpp"
#include "core/routing.hpp"
#include "core/slot_router.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/landmarks.hpp"
#include "obs/metrics.hpp"

namespace leosim::core {
namespace {

constexpr ConnectivityMode kModes[] = {ConnectivityMode::kBentPipe,
                                       ConnectivityMode::kHybrid};
constexpr double kTimes[] = {0.0, 2700.0};
constexpr int kPathCounts[] = {1, 4};

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

uint64_t TieFallbacks() {
  return obs::MetricsRegistry::Global()
      .GetCounter("dijkstra.astar_tie_fallbacks")
      .Value();
}

const NetworkModel& Model(ConnectivityMode mode) {
  const auto make = [](ConnectivityMode m) {
    NetworkOptions options;
    options.mode = m;
    options.relay_spacing_deg = 4.0;
    return NetworkModel(Scenario::Starlink(), options, data::AnchorCities());
  };
  static const NetworkModel bent_pipe = make(ConnectivityMode::kBentPipe);
  static const NetworkModel hybrid = make(ConnectivityMode::kHybrid);
  return mode == ConnectivityMode::kHybrid ? hybrid : bent_pipe;
}

// 100 pairs: at k = 1 the study stays below kAltMinQueries (Euclidean
// potential), at k = 4 it clears it (landmark table).
std::vector<CityPair> Pairs() {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 100;
  return SampleCityPairs(data::AnchorCities(), traffic);
}

// Every edge's enabled flag and every half-edge weight, in id order.
struct EdgeState {
  std::vector<bool> enabled;
  std::vector<double> half_weights;

  bool operator==(const EdgeState&) const = default;
};

EdgeState Capture(const graph::Graph& g) {
  EdgeState state;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    state.enabled.push_back(g.IsEnabled(e));
  }
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    for (const graph::HalfEdge& half : g.Neighbours(n)) {
      state.half_weights.push_back(half.weight);
    }
  }
  return state;
}

void ExpectSamePaths(const std::vector<graph::Path>& expected,
                     const std::vector<graph::Path>& actual, const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].edges, expected[i].edges) << what << " path " << i;
    EXPECT_TRUE(BitEq(actual[i].distance, expected[i].distance))
        << what << " path " << i;
  }
}

TEST(GoalDirectedDisjointPaths, EqualPlainOverloadAndRestoreTheGraph) {
  const std::vector<CityPair> pairs = Pairs();
  const uint64_t fallbacks_before = TieFallbacks();
  for (const ConnectivityMode mode : kModes) {
    for (const double t : kTimes) {
      NetworkModel::Snapshot snap = Model(mode).BuildSnapshot(t);
      graph::Graph& g = snap.graph;
      graph::DijkstraWorkspace ws;
      graph::LandmarkTable table;
      table.Rebuild(g, ws);
      const EdgeState initial = Capture(g);
      for (const int k : kPathCounts) {
        for (size_t i = 0; i < pairs.size(); ++i) {
          const graph::NodeId src = snap.CityNode(pairs[i].a);
          const graph::NodeId dst = snap.CityNode(pairs[i].b);
          const std::string what = std::string(ToString(mode)) + " t=" +
                                   std::to_string(t) + " k=" + std::to_string(k) +
                                   " pair " + std::to_string(i);
          const std::vector<graph::Path> plain =
              graph::KEdgeDisjointShortestPaths(g, src, dst, k, ws);

          table.SetDestination(dst);
          const auto alt = [&table](graph::NodeId n) { return table.Potential(n); };
          const geo::Vec3 dst_pos = snap.node_ecef[static_cast<size_t>(dst)];
          const auto euclidean = [&snap, &dst_pos](graph::NodeId n) {
            return EuclideanLatencyPotential(snap.node_ecef, n, dst_pos);
          };
          ExpectSamePaths(plain,
                          graph::KEdgeDisjointShortestPaths(g, src, dst, k, ws, alt),
                          what + " ALT");
          ExpectSamePaths(
              plain, graph::KEdgeDisjointShortestPaths(g, src, dst, k, ws, euclidean),
              what + " Euclidean");
        }
        EXPECT_TRUE(Capture(g) == initial)
            << ToString(mode) << " t=" << t << " k=" << k
            << ": an edge's enabled flag or half-edge weight was not restored";
      }
    }
  }
  EXPECT_GT(TieFallbacks(), fallbacks_before)
      << "no exact tie reached the A* tie guard";
}

TEST(GoalDirectedDisjointPaths, ThroughputSweepBitEqualToPerPairOracle) {
  const std::vector<CityPair> pairs = Pairs();
  SnapshotSchedule schedule;
  schedule.step_sec = kTimes[1];
  schedule.duration_sec = 2.0 * kTimes[1];
  ASSERT_EQ(schedule.Times(), std::vector<double>(std::begin(kTimes), std::end(kTimes)));
  const uint64_t fallbacks_before = TieFallbacks();
  for (const ConnectivityMode mode : kModes) {
    for (const int k : kPathCounts) {
      const std::vector<ThroughputResult> sweep =
          RunThroughputSweep(Model(mode), pairs, k, schedule);
      ASSERT_EQ(sweep.size(), std::size(kTimes));
      for (size_t s = 0; s < sweep.size(); ++s) {
        const PolicyThroughputResult oracle = RunThroughputWithPolicy(
            Model(mode), pairs, k, kTimes[s], RoutingPolicy::kDisjointGreedy);
        EXPECT_TRUE(BitEq(sweep[s].total_gbps, oracle.throughput.total_gbps))
            << ToString(mode) << " k=" << k << " t=" << kTimes[s] << ": "
            << sweep[s].total_gbps << " vs " << oracle.throughput.total_gbps;
        EXPECT_EQ(sweep[s].subflows, oracle.throughput.subflows);
        EXPECT_EQ(sweep[s].pairs_routed, oracle.throughput.pairs_routed);
        EXPECT_GT(sweep[s].subflows, 0);
      }
    }
  }
  EXPECT_GT(TieFallbacks(), fallbacks_before)
      << "no exact tie reached the A* tie guard";
}

}  // namespace
}  // namespace leosim::core
