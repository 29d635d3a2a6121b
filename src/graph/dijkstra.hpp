// Shortest paths over the snapshot graph (binary-heap Dijkstra, plus a
// goal-directed A* variant for single-pair queries with a geometric
// lower bound).
#pragma once

#include <algorithm>
#include <cstdint>
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

// An A* potential is a callable double(NodeId): a lower bound on the
// remaining cost from a node to the (implicit) query destination. It
// must be admissible (never exceed the true remaining cost over enabled
// edges) and consistent (|potential(u) - potential(v)| <= weight(u, v)
// for every edge); the straight-line propagation latency to the
// destination satisfies both for latency-weighted snapshot graphs. For
// ShortestPathAStar to return exactly ShortestPath's path, not only its
// distance, the bound must also be strict wherever the remaining cost is
// positive (see there). The A* entry points are templated on the
// callable so a plain lambda inlines into the relax loop.

class DijkstraWorkspace;

// The label-only kernels (RunDijkstra, RunAStar) run over any adjacency
// type that offers NumNodes(), FinalizeAdjacency(), Neighbours(n) (a
// span of arcs with `to` and `edge` members) and a RelaxedDistance
// overload for its arc type: Graph here, the relay contractions of
// graph/relay_contraction.hpp there. Each arc type defines its own
// addition order, so one relax loop serves both without a copy. Only a
// Graph's searches become paths here (WalkBack); a contraction's become
// full-graph paths through its ExpandPath.

// Distance reached by relaxing `half` from a node at distance d.
inline double RelaxedDistance(double d, const HalfEdge& half) {
  return d + half.weight;
}

template <typename Adjacency, typename Stop>
void RunDijkstra(const Adjacency& g, NodeId src, DijkstraWorkspace& workspace,
                 const Stop& stop);

template <typename Adjacency, typename Potential>
bool RunAStar(const Adjacency& g, NodeId src, NodeId dst,
              DijkstraWorkspace& workspace, const Potential& potential);

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

  // Label of node n in the last search begun with this workspace
  // (kInfDistance when the search never reached it). Final for settled
  // nodes; an upper bound for the rest.
  double DistanceOf(NodeId n) const {
    const NodeState& s = state_[static_cast<size_t>(n)];
    return s.stamp == epoch_ ? s.dist : kInfDistance;
  }
  // Arc id through which n got its label (-1 for the source). Valid only
  // for nodes with a finite DistanceOf.
  EdgeId ViaEdge(NodeId n) const { return state_[static_cast<size_t>(n)].via; }

 private:
  template <typename Adjacency, typename Stop>
  friend void RunDijkstra(const Adjacency& g, NodeId src,
                          DijkstraWorkspace& workspace, const Stop& stop);
  template <typename Adjacency, typename Potential>
  friend bool RunAStar(const Adjacency& g, NodeId src, NodeId dst,
                       DijkstraWorkspace& workspace, const Potential& potential);
  template <typename Potential>
  friend std::optional<Path> ShortestPathAStar(const Graph& g, NodeId src,
                                               NodeId dst,
                                               DijkstraWorkspace& workspace,
                                               const Potential& potential);

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

  void Relax(NodeId n, double dist, EdgeId via) {
    state_[static_cast<size_t>(n)] = {dist, via, epoch_};
  }

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

// The relax loop every Dijkstra entry point runs (ShortestPath,
// ShortestDistancesInto, ShortestPathTree::Build): settles nodes from
// src in distance order until stop(u) is true for a settled node u —
// asked before u's arcs are relaxed — or the heap drains. Leaves labels
// and predecessor arcs in `workspace`. std::push_heap / std::pop_heap
// are the algorithms std::priority_queue runs, so the settle order —
// and with it every result — matches the historical priority_queue
// implementation exactly.
template <typename Adjacency, typename Stop>
void RunDijkstra(const Adjacency& g, NodeId src, DijkstraWorkspace& workspace,
                 const Stop& stop) {
  const auto greater = [](const DijkstraWorkspace::QueueEntry& a,
                          const DijkstraWorkspace::QueueEntry& b) {
    return a.distance > b.distance;
  };
  g.FinalizeAdjacency();
  workspace.Begin(g.NumNodes());
  auto& heap = workspace.heap_;
  workspace.Relax(src, 0.0, -1);
  heap.push_back({0.0, src});

  // Work tallies live in locals for the duration of the loop (the
  // compiler keeps them in registers; member updates every iteration
  // measurably slow the relax loop) and post to the workspace once.
  uint64_t pops = 0;
  uint64_t edges = 0;
  uint64_t pushes = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const auto [d, u] = heap.back();
    heap.pop_back();
    ++pops;
    if (d > workspace.DistanceOf(u)) {
      continue;  // stale entry
    }
    if (stop(u)) {
      break;
    }
    for (const auto& half : g.Neighbours(u)) {
      ++edges;
      // Disabled edges carry weight = +inf, so they never relax.
      const double nd = RelaxedDistance(d, half);
      if (nd < workspace.DistanceOf(half.to)) {
        workspace.Relax(half.to, nd, half.edge);
        ++pushes;
        heap.push_back({nd, half.to});
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
  }
  workspace.pending_pops_ += pops;
  workspace.pending_edges_ += edges;
  workspace.pending_pushes_ += pushes;
}

// Walks dst's predecessor edges in `workspace` back to src into a Path.
// dst must have a finite label from a search on g.
inline Path WalkBack(const Graph& g, const DijkstraWorkspace& workspace,
                     NodeId src, NodeId dst) {
  Path path;
  path.distance = workspace.DistanceOf(dst);
  for (NodeId cur = dst; cur != src;) {
    const EdgeId e = workspace.ViaEdge(cur);
    path.edges.push_back(e);
    path.nodes.push_back(cur);
    cur = g.OtherEnd(e, cur);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

// Single-pair shortest path; nullopt if dst is unreachable over enabled
// edges. Early-exits once dst is settled.
std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst);

// As above, reusing `workspace` scratch across queries. The results are
// identical to the workspace-free overload.
std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst,
                                 DijkstraWorkspace& workspace);

// Goal-directed search from src toward dst: Dijkstra ordered by
// distance + potential(node), settling until dst pops or the heap
// drains. Leaves labels and predecessor arcs in `workspace` and returns
// whether dst was reached. Under an admissible potential (see above)
// dst's label is final when it pops, so it is ShortestPath's distance
// bit for bit; under a strictly admissible one every node on a shortest
// path to dst is settled too, at its final label, before dst pops. Runs
// over any adjacency and builds no path: ShortestPathAStar adds the tie
// guard and the path on a Graph, ExpandPath on a relay contraction.
// Defined inline so `potential` (typically a capturing lambda) inlines
// into the relax loop; the arithmetic is identical for every callable
// type, so the result does not depend on how the potential is passed.
template <typename Adjacency, typename Potential>
bool RunAStar(const Adjacency& g, NodeId src, NodeId dst,
              DijkstraWorkspace& workspace, const Potential& potential) {
  const auto greater = [](const DijkstraWorkspace::AStarEntry& a,
                          const DijkstraWorkspace::AStarEntry& b) {
    return a.fscore > b.fscore;
  };
  g.FinalizeAdjacency();
  workspace.Begin(g.NumNodes());
  auto& heap = workspace.astar_heap_;
  workspace.Relax(src, 0.0, -1);
  heap.push_back({potential(src), 0.0, src});

  // Work tallies in locals; see RunDijkstra.
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
    for (const auto& half : g.Neighbours(top.node)) {
      ++edges;
      // Disabled edges carry weight = +inf, so they never relax.
      const double nd = RelaxedDistance(top.distance, half);
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
  return workspace.DistanceOf(dst) != kInfDistance;
}

// Goal-directed single-pair shortest path: RunAStar, then a tie guard,
// then the path. Precondition for an exact answer: edge weights are
// positive and the potential is strictly admissible, i.e. strictly
// below the true remaining distance to dst wherever that distance is
// positive (the slacked landmark and Euclidean bounds are; see
// kPotentialSlack in graph/landmarks.hpp). Under it the result is
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
template <typename Potential>
std::optional<Path> ShortestPathAStar(const Graph& g, NodeId src, NodeId dst,
                                      DijkstraWorkspace& workspace,
                                      const Potential& potential) {
  if (!RunAStar(g, src, dst, workspace, potential)) {
    return std::nullopt;
  }
  // Tie guard: a second tight edge into a path node (src aside) means
  // Dijkstra may take the other one.
  for (NodeId cur = dst; cur != src;) {
    const double dx = workspace.DistanceOf(cur);
    int tight = 0;
    for (const HalfEdge& half : g.Neighbours(cur)) {
      tight += workspace.DistanceOf(half.to) + half.weight == dx ? 1 : 0;
    }
    if (tight > 1) {
      ++workspace.pending_tie_fallbacks_;
      return ShortestPath(g, src, dst, workspace);
    }
    cur = g.OtherEnd(workspace.ViaEdge(cur), cur);
  }
  return WalkBack(g, workspace, src, dst);
}

// Single-source distances to every node (kInfDistance if unreachable)
// into a caller-owned vector (resized to NumNodes()), reusing `workspace`
// scratch across queries.
template <typename Adjacency>
void ShortestDistancesInto(const Adjacency& g, NodeId src,
                           DijkstraWorkspace& workspace, std::vector<double>* out) {
  RunDijkstra(g, src, workspace, [](NodeId) { return false; });
  const int n = g.NumNodes();
  out->resize(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    (*out)[static_cast<size_t>(v)] = workspace.DistanceOf(v);
  }
}

}  // namespace leosim::graph
