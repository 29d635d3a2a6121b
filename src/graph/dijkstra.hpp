// Shortest paths over the snapshot graph (binary-heap Dijkstra, plus a
// goal-directed A* variant for single-pair queries with a geometric
// lower bound).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace leosim::graph {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

struct Path {
  std::vector<NodeId> nodes;   // src .. dst inclusive
  std::vector<EdgeId> edges;   // edges[i] connects nodes[i] and nodes[i+1]
  double distance{0.0};        // sum of edge weights

  int HopCount() const { return static_cast<int>(edges.size()); }
};

// Lower bound on the remaining cost from a node to the (implicit) query
// destination, used by ShortestPathAStar. Must be admissible (never
// exceed the true remaining cost over enabled edges) and consistent
// (|potential(u) - potential(v)| <= weight(u, v) for every edge); the
// straight-line propagation latency to the destination satisfies both
// for latency-weighted snapshot graphs. For ShortestPathAStar to return
// exactly ShortestPath's path, not only its distance, the bound must
// also be strict wherever the remaining cost is positive (see there).
// ShortestPathAStar is templated on the callable so a plain lambda
// inlines into the relax loop; this alias is the type-erased fallback
// for code that must store one.
using PotentialFn = std::function<double(NodeId)>;

class DijkstraWorkspace;
class ShortestPathTree;

template <typename Potential>
std::optional<Path> ShortestPathAStar(const Graph& g, NodeId src, NodeId dst,
                                      DijkstraWorkspace& workspace,
                                      const Potential& potential);

// Reusable scratch for the Dijkstra/A* entry points below. Per-node
// search state (distance, predecessor edge, stamp) is packed into one
// 16-byte record and epoch-stamped: an entry is live only while its
// stamp matches the current epoch, so starting a new query is one
// counter increment (O(touched) total reset work) instead of an O(n)
// infinity-fill. The heaps' backing stores are recycled across queries
// too. One workspace serves graphs of any size (arrays grow on demand)
// but must not be shared across threads.
class DijkstraWorkspace {
 public:
  DijkstraWorkspace() = default;
  // Flushes any unreported work counters to the global metrics registry.
  ~DijkstraWorkspace();
  DijkstraWorkspace(const DijkstraWorkspace&) = delete;
  DijkstraWorkspace& operator=(const DijkstraWorkspace&) = delete;

  // Heap entry types (public so the .cpp's comparators can name them).
  struct QueueEntry {
    double distance;
    NodeId node;
  };
  struct AStarEntry {
    double fscore;    // distance + potential(node): the heap key
    double distance;  // settled g-value carried to avoid recomputation
    NodeId node;
  };

 private:
  friend std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst,
                                          DijkstraWorkspace& workspace);
  template <typename Potential>
  friend std::optional<Path> ShortestPathAStar(const Graph& g, NodeId src,
                                               NodeId dst,
                                               DijkstraWorkspace& workspace,
                                               const Potential& potential);
  friend void ShortestDistancesInto(const Graph& g, NodeId src,
                                    DijkstraWorkspace& workspace,
                                    std::vector<double>* out);
  // One-to-many batched search (sssp_tree.hpp) runs the same relax loop
  // over the same state.
  friend class ShortestPathTree;

  // Distance/predecessor valid only while stamp matches the workspace
  // epoch. 16 bytes so one relaxation touches a single cache line.
  struct NodeState {
    double dist;
    EdgeId via;
    uint32_t stamp;
  };

  // Grows the arrays to `num_nodes` and opens a fresh epoch. Epoch wrap
  // (once per ~4e9 queries) forces a full stamp clear. Also flushes the
  // previous query's work counters to the global metrics registry.
  void Begin(int num_nodes);

  // Work counters are plain (non-atomic) per-workspace tallies so the
  // search loops pay one register increment, not an atomic op; Begin()
  // and the destructor flush them to sharded global counters.
  void FlushWorkCounters();

  double DistanceOf(NodeId n) const {
    const NodeState& s = state_[static_cast<size_t>(n)];
    return s.stamp == epoch_ ? s.dist : kInfDistance;
  }
  void Relax(NodeId n, double dist, EdgeId via) {
    state_[static_cast<size_t>(n)] = {dist, via, epoch_};
  }
  EdgeId ViaEdge(NodeId n) const { return state_[static_cast<size_t>(n)].via; }

  std::vector<NodeState> state_;
  std::vector<QueueEntry> heap_;
  std::vector<AStarEntry> astar_heap_;
  uint32_t epoch_{0};
  uint64_t pending_queries_{0};
  uint64_t pending_pops_{0};
  uint64_t pending_edges_{0};
  uint64_t pending_pushes_{0};
  uint64_t pending_tie_fallbacks_{0};
};

// Single-pair shortest path; nullopt if dst is unreachable over enabled
// edges. Early-exits once dst is settled.
std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst);

// As above, reusing `workspace` scratch arrays across queries. Results are
// identical to the workspace-free overload.
std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst,
                                 DijkstraWorkspace& workspace);

// Goal-directed single-pair shortest path: Dijkstra ordered by
// distance + potential(node). Precondition for an exact answer: edge
// weights are positive and the potential is strictly admissible, i.e.
// strictly below the true remaining distance to dst wherever that
// distance is positive (the slacked landmark and Euclidean bounds are;
// see kPotentialSlack in graph/landmarks.hpp). Under it the result is
// exactly ShortestPath's — the same distance and the same edges, exact
// ties included — while A* settles only the corridor around the path
// instead of a full distance ball: the big win for repeated
// point-to-point queries on snapshot graphs, where the straight-line
// propagation latency to dst is a tight lower bound. A potential that
// is merely admissible (equal to the remaining distance somewhere, an
// exact potential for example) still gives a shortest distance, but on
// an exact tie it may give another branch than ShortestPath's.
//
// Why the tie guard makes the path exact: plain Dijkstra gives each
// node the predecessor edge that first reached its final distance, and
// A* expands nodes in another order, so on a tie the two can pick
// different branches. Call an edge (u, x) tight when d(u) + w(u, x) ==
// d(x) in floating point. Under the precondition every tight
// predecessor u of a path node x lies on a shortest path to dst, has
// d(u) + potential(u) < d(dst), and so is expanded at its final
// distance before dst pops; a non-tight neighbour's label plus the
// weight can only exceed d(x). So once dst pops, counting the incident
// edges of x whose far end's label plus the weight equals x's label
// counts exactly x's tight predecessor edges. If every path node but
// src has exactly one, that edge is the only way to reach d(x) — in A*
// and in Dijkstra alike — and both searches walk back the same edges.
// Otherwise the query is answered by plain ShortestPath and counted in
// `dijkstra.astar_tie_fallbacks`. The check runs after the search, over
// the path nodes' adjacency only, so the relax loop pays nothing for
// it.
//
// Defined inline so `potential` (typically a capturing lambda) inlines
// into the relax loop; the arithmetic is identical for every callable
// type, so the result does not depend on how the potential is passed.
template <typename Potential>
std::optional<Path> ShortestPathAStar(const Graph& g, NodeId src, NodeId dst,
                                      DijkstraWorkspace& workspace,
                                      const Potential& potential) {
  const auto greater = [](const DijkstraWorkspace::AStarEntry& a,
                          const DijkstraWorkspace::AStarEntry& b) {
    return a.fscore > b.fscore;
  };
  g.FinalizeAdjacency();
  workspace.Begin(g.NumNodes());
  auto& heap = workspace.astar_heap_;
  workspace.Relax(src, 0.0, -1);
  heap.push_back({potential(src), 0.0, src});

  // Work tallies live in locals for the duration of the loop (the
  // compiler keeps them in registers; member updates every iteration
  // measurably slow the relax loop) and post to the workspace once.
  uint64_t pops = 0;
  uint64_t edges = 0;
  uint64_t pushes = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const DijkstraWorkspace::AStarEntry top = heap.back();
    heap.pop_back();
    ++pops;
    if (top.distance > workspace.DistanceOf(top.node)) {
      continue;  // stale entry
    }
    if (top.node == dst) {
      break;  // admissible potential => dst's g-value is final here
    }
    for (const HalfEdge& half : g.Neighbours(top.node)) {
      ++edges;
      // Disabled edges carry weight = +inf, so they never relax.
      const double nd = top.distance + half.weight;
      if (nd < workspace.DistanceOf(half.to)) {
        workspace.Relax(half.to, nd, half.edge);
        ++pushes;
        heap.push_back({nd + potential(half.to), nd, half.to});
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
  }
  workspace.pending_pops_ += pops;
  workspace.pending_edges_ += edges;
  workspace.pending_pushes_ += pushes;

  if (workspace.DistanceOf(dst) == kInfDistance) {
    return std::nullopt;
  }
  Path path;
  path.distance = workspace.DistanceOf(dst);
  for (NodeId cur = dst; cur != src;) {
    const EdgeId e = workspace.ViaEdge(cur);
    path.edges.push_back(e);
    path.nodes.push_back(cur);
    cur = g.OtherEnd(e, cur);
  }
  // Tie guard: path.nodes holds every path node but src here. A second
  // tight edge into one of them means Dijkstra may take the other one.
  for (const NodeId x : path.nodes) {
    const double dx = workspace.DistanceOf(x);
    int tight = 0;
    for (const HalfEdge& half : g.Neighbours(x)) {
      tight += workspace.DistanceOf(half.to) + half.weight == dx ? 1 : 0;
    }
    if (tight > 1) {
      ++workspace.pending_tie_fallbacks_;
      return ShortestPath(g, src, dst, workspace);
    }
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

// Single-source distances to every node (kInfDistance if unreachable).
std::vector<double> ShortestDistances(const Graph& g, NodeId src);

// As above into a caller-owned vector (resized to NumNodes()), reusing
// `workspace` scratch across queries.
void ShortestDistancesInto(const Graph& g, NodeId src, DijkstraWorkspace& workspace,
                           std::vector<double>* out);

}  // namespace leosim::graph
