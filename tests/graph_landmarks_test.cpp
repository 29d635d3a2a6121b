// LandmarkTable seeding and compact-storage properties on synthetic
// graphs: landmarks come from the largest component even when node 0
// is isolated, the float32 table's potential stays admissible, and ALT
// A* answers every query bit for bit like plain Dijkstra.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/landmarks.hpp"

namespace leosim::graph {
namespace {

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

uint64_t Splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr int kSide = 12;
constexpr int kGridFirst = 1;                        // node 0 stays isolated
constexpr int kGridNodes = kSide * kSide;
constexpr int kSmallFirst = kGridFirst + kGridNodes;  // a 3-node path
constexpr int kNodes = kSmallFirst + 3;

// Node 0 isolated, a 12x12 grid with diagonals (the giant component)
// carrying irregular millisecond-scale weights, and a separate 3-node
// path — the bent-pipe shape where a satellite with no ground contact
// gets the lowest ids.
Graph MakeGraph() {
  Graph g;
  g.Reset(kNodes);
  uint64_t rng = 20260917;
  const auto weight = [&rng] {
    return 0.5 + static_cast<double>(Splitmix64(rng) % 100000) / 3217.0;
  };
  const auto id = [](int r, int c) { return kGridFirst + r * kSide + c; };
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      if (c + 1 < kSide) g.AddEdge(id(r, c), id(r, c + 1), weight());
      if (r + 1 < kSide) g.AddEdge(id(r, c), id(r + 1, c), weight());
      if (r + 1 < kSide && c + 1 < kSide) {
        g.AddEdge(id(r, c), id(r + 1, c + 1), weight());
      }
    }
  }
  g.AddEdge(kSmallFirst, kSmallFirst + 1, weight());
  g.AddEdge(kSmallFirst + 1, kSmallFirst + 2, weight());
  return g;
}

TEST(LandmarkTable, SeedsInLargestComponentWhenNodeZeroIsIsolated) {
  const Graph g = MakeGraph();
  DijkstraWorkspace ws;
  LandmarkTable table;
  table.Rebuild(g, ws);

  const Components components = ConnectedComponents(g);
  const int giant = components.label[kGridFirst];
  ASSERT_EQ(static_cast<int>(table.landmarks().size()),
            LandmarkTable::kDefaultNumLandmarks);
  for (const NodeId l : table.landmarks()) {
    EXPECT_EQ(components.label[static_cast<size_t>(l)], giant) << "landmark " << l;
  }
}

TEST(LandmarkTable, PotentialIsAdmissibleOnEveryNode) {
  const Graph g = MakeGraph();
  DijkstraWorkspace ws;
  LandmarkTable table;
  table.Rebuild(g, ws);
  std::vector<double> dist;
  for (NodeId dst = kGridFirst; dst < kSmallFirst; dst += 7) {
    ShortestDistancesInto(g, dst, ws, &dist);
    table.SetDestination(dst);
    EXPECT_EQ(table.Potential(dst), 0.0);
    for (NodeId v = kGridFirst; v < kSmallFirst; ++v) {
      EXPECT_LE(table.Potential(v), dist[static_cast<size_t>(v)])
          << "v=" << v << " dst=" << dst;
    }
  }
}

TEST(LandmarkTable, AltAStarBitEqualToDijkstraForEveryPair) {
  const Graph g = MakeGraph();
  DijkstraWorkspace ws_table;
  DijkstraWorkspace ws_alt;
  DijkstraWorkspace ws_ref;
  LandmarkTable table;
  table.Rebuild(g, ws_table);
  const auto potential = [&table](NodeId v) { return table.Potential(v); };

  int compared = 0;
  for (NodeId dst = 0; dst < kNodes; ++dst) {
    table.SetDestination(dst);
    for (NodeId src = 0; src < kNodes; ++src) {
      const auto alt = ShortestPathAStar(g, src, dst, ws_alt, potential);
      const auto ref = ShortestPath(g, src, dst, ws_ref);
      ASSERT_EQ(alt.has_value(), ref.has_value()) << src << "->" << dst;
      if (ref.has_value()) {
        ASSERT_TRUE(BitEq(alt->distance, ref->distance)) << src << "->" << dst;
        ASSERT_EQ(alt->nodes, ref->nodes) << src << "->" << dst;
        ++compared;
      }
    }
  }
  // Every ordered pair inside the grid and inside the small path, plus
  // the isolated node to itself.
  EXPECT_EQ(compared, kGridNodes * kGridNodes + 3 * 3 + 1);
}

}  // namespace
}  // namespace leosim::graph
