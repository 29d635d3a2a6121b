#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "graph/disjoint_paths.hpp"
#include "obs/metrics.hpp"

namespace leosim::graph {
namespace {

// Builds the classic diamond: 0-1-3 (cost 2) and 0-2-3 (cost 3), plus a
// direct 0-3 edge of cost 10.
Graph Diamond() {
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 3, 1.0);
  g.AddEdge(0, 2, 1.5);
  g.AddEdge(2, 3, 1.5);
  g.AddEdge(0, 3, 10.0);
  return g;
}

TEST(GraphTest, BasicConstruction) {
  const Graph g = Diamond();
  EXPECT_EQ(g.NumNodes(), 4);
  EXPECT_EQ(g.NumEdges(), 5);
  EXPECT_EQ(g.Neighbours(0).size(), 3u);
  EXPECT_EQ(g.Neighbours(3).size(), 3u);
}

TEST(GraphTest, RejectsBadEdges) {
  Graph g(3);
  EXPECT_THROW(g.AddEdge(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.AddEdge(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(g.AddEdge(-1, 1, 1.0), std::out_of_range);
  EXPECT_THROW(g.AddEdge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(GraphTest, OtherEnd) {
  Graph g(2);
  const EdgeId e = g.AddEdge(0, 1, 1.0);
  EXPECT_EQ(g.OtherEnd(e, 0), 1);
  EXPECT_EQ(g.OtherEnd(e, 1), 0);
}

TEST(GraphTest, EnableDisable) {
  Graph g = Diamond();
  EXPECT_TRUE(g.IsEnabled(0));
  g.SetEnabled(0, false);
  EXPECT_FALSE(g.IsEnabled(0));
  g.SetEnabled(0, true);
  EXPECT_TRUE(g.IsEnabled(0));
}

TEST(DijkstraTest, FindsShortestPath) {
  const Graph g = Diamond();
  const auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->distance, 2.0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(path->HopCount(), 2);
}

TEST(DijkstraTest, PathEdgesMatchNodes) {
  const Graph g = Diamond();
  const auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->edges.size(), path->nodes.size() - 1);
  for (size_t i = 0; i < path->edges.size(); ++i) {
    const EdgeRecord& e = g.Edge(path->edges[i]);
    const std::set<NodeId> got{e.a, e.b};
    const std::set<NodeId> want{path->nodes[i], path->nodes[i + 1]};
    EXPECT_EQ(got, want);
  }
}

TEST(DijkstraTest, TrivialSourceEqualsDestination) {
  const Graph g = Diamond();
  const auto path = ShortestPath(g, 2, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->distance, 0.0);
  EXPECT_EQ(path->HopCount(), 0);
}

TEST(DijkstraTest, UnreachableReturnsNullopt) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  EXPECT_FALSE(ShortestPath(g, 0, 2).has_value());
}

TEST(DijkstraTest, RespectsDisabledEdges) {
  Graph g = Diamond();
  g.SetEnabled(0, false);  // kill 0-1
  const auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->distance, 3.0);  // via node 2
}

TEST(DijkstraTest, ShortestDistancesMatchesSinglePair) {
  const Graph g = Diamond();
  DijkstraWorkspace workspace;
  std::vector<double> dist;
  ShortestDistancesInto(g, 0, workspace, &dist);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 1.5);
  EXPECT_DOUBLE_EQ(dist[3], 2.0);
}

TEST(DijkstraTest, UnreachableDistanceIsInfinite) {
  Graph g(3);
  g.AddEdge(0, 1, 5.0);
  DijkstraWorkspace workspace;
  std::vector<double> dist;
  ShortestDistancesInto(g, 0, workspace, &dist);
  EXPECT_EQ(dist[2], kInfDistance);
}

TEST(DisjointPathsTest, FindsAllThreeDiamondPaths) {
  Graph g = Diamond();
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 4);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].distance, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].distance, 3.0);
  EXPECT_DOUBLE_EQ(paths[2].distance, 10.0);
}

TEST(DisjointPathsTest, PathsShareNoEdges) {
  Graph g = Diamond();
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 3);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    for (const EdgeId e : p.edges) {
      EXPECT_TRUE(used.insert(e).second) << "edge reused: " << e;
    }
  }
}

TEST(DisjointPathsTest, RestoresGraphState) {
  Graph g = Diamond();
  (void)KEdgeDisjointShortestPaths(g, 0, 3, 3);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_TRUE(g.IsEnabled(e));
  }
}

TEST(DisjointPathsTest, PreservesCallerDisabledEdges) {
  Graph g = Diamond();
  g.SetEnabled(4, false);  // the direct 0-3 edge
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 4);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_FALSE(g.IsEnabled(4));
}

TEST(DisjointPathsTest, KOneIsJustShortestPath) {
  Graph g = Diamond();
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths[0].distance, 2.0);
}

// --- A* tie guard --------------------------------------------------------

uint64_t TieFallbacks() {
  return obs::MetricsRegistry::Global()
      .GetCounter("dijkstra.astar_tie_fallbacks")
      .Value();
}

// `branches` equal-length routes 0 -> m -> dst, one per middle node
// m = 1..branches, every edge of weight 1; dst = branches + 1.
Graph TieFan(int branches) {
  Graph g(branches + 2);
  for (NodeId m = 1; m <= branches; ++m) {
    g.AddEdge(0, m, 1.0);
    g.AddEdge(m, branches + 1, 1.0);
  }
  return g;
}

// A potential that is admissible and consistent on TieFan (0.9 < 1, the
// middle nodes' distance to dst) but ranks `late` behind every other
// middle node, so A* first reaches dst through another branch.
auto SteerAwayFrom(NodeId late) {
  return [late](NodeId n) { return n == late ? 0.9 : 0.0; };
}

TEST(AStarTieGuardTest, ReturnsDijkstrasBranchOfAnExactTie) {
  const Graph g = TieFan(2);
  const std::optional<Path> dijkstra = ShortestPath(g, 0, 3);
  ASSERT_TRUE(dijkstra.has_value());
  const uint64_t before = TieFallbacks();
  {
    DijkstraWorkspace ws;
    const std::optional<Path> astar =
        ShortestPathAStar(g, 0, 3, ws, SteerAwayFrom(dijkstra->nodes[1]));
    ASSERT_TRUE(astar.has_value());
    EXPECT_EQ(astar->edges, dijkstra->edges);
    EXPECT_EQ(astar->nodes, dijkstra->nodes);
    EXPECT_EQ(astar->distance, dijkstra->distance);
  }
  EXPECT_EQ(TieFallbacks(), before + 1) << "the tie must take the fallback";
}

TEST(AStarTieGuardTest, UniqueShortestPathNeedsNoFallback) {
  // The classic diamond's shortest path 0-1-3 is unique; steering A*
  // towards the longer branch first must not trigger the guard.
  const Graph g = Diamond();
  const std::optional<Path> dijkstra = ShortestPath(g, 0, 3);
  const uint64_t before = TieFallbacks();
  {
    DijkstraWorkspace ws;
    const std::optional<Path> astar = ShortestPathAStar(
        g, 0, 3, ws, [](NodeId n) { return n == 1 ? 0.9 : 0.0; });
    ASSERT_TRUE(astar.has_value());
    EXPECT_EQ(astar->edges, dijkstra->edges);
  }
  EXPECT_EQ(TieFallbacks(), before);
}

TEST(ComponentsTest, SingleComponent) {
  const Graph g = Diamond();
  const Components c = ConnectedComponents(g);
  EXPECT_EQ(c.count, 1);
}

TEST(ComponentsTest, DisabledEdgesSplitComponents) {
  Graph g(4);
  const EdgeId e01 = g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  Components c = ConnectedComponents(g);
  EXPECT_EQ(c.count, 2);
  g.SetEnabled(e01, false);
  c = ConnectedComponents(g);
  EXPECT_EQ(c.count, 3);
}

TEST(ComponentsTest, CountDisconnected) {
  Graph g(5);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  // node 4 isolated. Targets: {0}. Candidates: {1,2,3,4}.
  EXPECT_EQ(CountDisconnected(g, {1, 2, 3, 4}, {0}), 3);
  EXPECT_EQ(CountDisconnected(g, {1}, {0}), 0);
}

// Property: on a ring of n nodes, the two disjoint paths between opposite
// nodes have lengths n/2 each, and a third does not exist.
class RingTest : public ::testing::TestWithParam<int> {};

TEST_P(RingTest, OppositePathsOnRing) {
  const int n = GetParam();
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    g.AddEdge(i, (i + 1) % n, 1.0);
  }
  const NodeId src = 0;
  const NodeId dst = n / 2;
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, src, dst, 3);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].distance, n / 2);
  EXPECT_DOUBLE_EQ(paths[1].distance, n - n / 2);
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingTest, ::testing::Values(4, 6, 8, 10, 20, 50));

}  // namespace
}  // namespace leosim::graph
