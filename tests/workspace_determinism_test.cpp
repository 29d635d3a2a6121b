// Regression guard for the workspace-reuse fast paths: building
// snapshots and running shortest-path queries through reused workspaces
// must produce results bit-identical to the allocate-per-call paths.
// Every equality below is exact (==, not near) on purpose — workspace
// reuse is only sound if it changes nothing but speed.
#include <gtest/gtest.h>

#include <vector>

#include "core/network_builder.hpp"
#include "core/scenario.hpp"
#include "data/cities.hpp"
#include "graph/dijkstra.hpp"
#include "link/radio.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 5.0;
  return options;
}

void ExpectSnapshotsIdentical(const NetworkModel::Snapshot& a,
                              const NetworkModel::Snapshot& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  EXPECT_EQ(a.radio_edges, b.radio_edges);
  EXPECT_EQ(a.isl_edges, b.isl_edges);
  for (int n = 0; n < a.NumNodes(); ++n) {
    const geo::Vec3& pa = a.node_ecef[static_cast<size_t>(n)];
    const geo::Vec3& pb = b.node_ecef[static_cast<size_t>(n)];
    ASSERT_EQ(pa.x, pb.x);
    ASSERT_EQ(pa.y, pb.y);
    ASSERT_EQ(pa.z, pb.z);
  }
  for (graph::EdgeId e = 0; e < a.graph.NumEdges(); ++e) {
    const graph::EdgeRecord& ra = a.graph.Edge(e);
    const graph::EdgeRecord& rb = b.graph.Edge(e);
    ASSERT_EQ(ra.a, rb.a);
    ASSERT_EQ(ra.b, rb.b);
    ASSERT_EQ(ra.weight, rb.weight);
    ASSERT_EQ(ra.capacity, rb.capacity);
    ASSERT_EQ(ra.enabled, rb.enabled);
  }
}

TEST(WorkspaceDeterminismTest, SnapshotWithWorkspaceMatchesWithout) {
  const NetworkModel model(Scenario::Starlink(),
                           FastOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  // Reuse one workspace across several timesteps; each build must equal
  // the throwaway-workspace build at that time, including after the
  // buffers have been "dirtied" by earlier timesteps.
  NetworkModel::SnapshotWorkspace workspace;
  for (const double t : {0.0, 450.0, 900.0, 1350.0}) {
    const NetworkModel::Snapshot fresh = model.BuildSnapshot(t);
    const NetworkModel::Snapshot& reused = model.BuildSnapshot(t, &workspace);
    ExpectSnapshotsIdentical(fresh, reused);
  }
}

TEST(WorkspaceDeterminismTest, ShortestPathWithWorkspaceMatchesWithout) {
  const NetworkModel model(Scenario::Starlink(),
                           FastOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  const NetworkModel::Snapshot snap = model.BuildSnapshot(600.0);

  graph::DijkstraWorkspace workspace;
  const int cities = snap.num_cities;
  for (int i = 0; i < 12; ++i) {
    const graph::NodeId src = snap.CityNode(i % cities);
    const graph::NodeId dst = snap.CityNode((i * 7 + 5) % cities);
    if (src == dst) {
      continue;
    }
    const auto fresh = graph::ShortestPath(snap.graph, src, dst);
    const auto reused = graph::ShortestPath(snap.graph, src, dst, workspace);
    ASSERT_EQ(fresh.has_value(), reused.has_value());
    if (!fresh.has_value()) {
      continue;
    }
    EXPECT_EQ(fresh->distance, reused->distance);
    EXPECT_EQ(fresh->nodes, reused->nodes);
    EXPECT_EQ(fresh->edges, reused->edges);
  }
}

TEST(WorkspaceDeterminismTest, AStarMatchesDijkstraDistance) {
  // The goal-directed search must return the same shortest-path latency
  // as plain Dijkstra (the latency study depends on this).
  const NetworkModel model(Scenario::Starlink(),
                           FastOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  const NetworkModel::Snapshot snap = model.BuildSnapshot(300.0);

  graph::DijkstraWorkspace workspace;
  const int cities = snap.num_cities;
  for (int i = 0; i < 12; ++i) {
    const graph::NodeId src = snap.CityNode((i * 3) % cities);
    const graph::NodeId dst = snap.CityNode((i * 11 + 2) % cities);
    if (src == dst) {
      continue;
    }
    const geo::Vec3 dst_pos = snap.node_ecef[static_cast<size_t>(dst)];
    const auto potential = [&snap, &dst_pos](graph::NodeId n) {
      return (1.0 - 1e-12) *
             link::PropagationLatencyMs(snap.node_ecef[static_cast<size_t>(n)],
                                        dst_pos);
    };
    const auto plain = graph::ShortestPath(snap.graph, src, dst);
    const auto astar =
        graph::ShortestPathAStar(snap.graph, src, dst, workspace, potential);
    ASSERT_EQ(plain.has_value(), astar.has_value());
    if (plain.has_value()) {
      EXPECT_EQ(plain->distance, astar->distance);
    }
  }
}

TEST(WorkspaceDeterminismTest, ShortestDistancesIntoReusedMatchesFresh) {
  const NetworkModel model(Scenario::Starlink(),
                           FastOptions(ConnectivityMode::kBentPipe),
                           data::AnchorCities());
  const NetworkModel::Snapshot snap = model.BuildSnapshot(0.0);

  graph::DijkstraWorkspace workspace;
  std::vector<double> reused;
  for (int i = 0; i < 3; ++i) {
    const graph::NodeId src = snap.CityNode(i * 2);
    graph::DijkstraWorkspace fresh_workspace;
    std::vector<double> fresh;
    graph::ShortestDistancesInto(snap.graph, src, fresh_workspace, &fresh);
    graph::ShortestDistancesInto(snap.graph, src, workspace, &reused);
    EXPECT_EQ(fresh, reused);
  }
}

}  // namespace
}  // namespace leosim::core
