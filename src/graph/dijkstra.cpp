#include "graph/dijkstra.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace leosim::graph {

namespace {

obs::Counter& QueriesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("dijkstra.queries");
  return counter;
}

obs::Counter& PopsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("dijkstra.nodes_popped");
  return counter;
}

obs::Counter& EdgesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("dijkstra.edges_relaxed");
  return counter;
}

obs::Counter& PushesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("dijkstra.heap_pushes");
  return counter;
}

// A* queries the tie guard answered with plain ShortestPath instead
// (see ShortestPathAStar).
obs::Counter& TieFallbacksCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("dijkstra.astar_tie_fallbacks");
  return counter;
}

// Min-heap ordering over the workspace's recycled vector (std::push_heap /
// std::pop_heap are the same algorithms std::priority_queue runs, so the
// settle order — and therefore every result — matches the historical
// priority_queue implementation exactly).
struct HeapGreater {
  bool operator()(const DijkstraWorkspace::QueueEntry& a,
                  const DijkstraWorkspace::QueueEntry& b) const {
    return a.distance > b.distance;
  }
};

}  // namespace

DijkstraWorkspace::~DijkstraWorkspace() { FlushWorkCounters(); }

void DijkstraWorkspace::FlushWorkCounters() {
  if (pending_queries_ == 0) {
    return;
  }
  QueriesCounter().Add(pending_queries_);
  PopsCounter().Add(pending_pops_);
  EdgesCounter().Add(pending_edges_);
  PushesCounter().Add(pending_pushes_);
  TieFallbacksCounter().Add(pending_tie_fallbacks_);
  pending_queries_ = 0;
  pending_pops_ = 0;
  pending_edges_ = 0;
  pending_pushes_ = 0;
  pending_tie_fallbacks_ = 0;
}

void DijkstraWorkspace::Begin(int num_nodes) {
  FlushWorkCounters();
  ++pending_queries_;
  const size_t n = static_cast<size_t>(num_nodes);
  if (state_.size() < n) {
    state_.resize(n, NodeState{0.0, -1, 0});
  }
  if (++epoch_ == 0) {
    for (NodeState& s : state_) {
      s.stamp = 0;
    }
    epoch_ = 1;
  }
  heap_.clear();
  astar_heap_.clear();
}

namespace {

// Walks the predecessor edges back from dst. Shared by both single-pair
// searches. `via_of(n)` must return the settled predecessor edge of n.
template <typename ViaFn>
Path BuildPath(const Graph& g, const ViaFn& via_of, NodeId src, NodeId dst,
               double distance) {
  Path path;
  path.distance = distance;
  for (NodeId cur = dst; cur != src;) {
    const EdgeId e = via_of(cur);
    path.edges.push_back(e);
    path.nodes.push_back(cur);
    cur = g.OtherEnd(e, cur);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

}  // namespace

std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst) {
  DijkstraWorkspace workspace;
  return ShortestPath(g, src, dst, workspace);
}

std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst,
                                 DijkstraWorkspace& workspace) {
  g.FinalizeAdjacency();
  workspace.Begin(g.NumNodes());
  auto& heap = workspace.heap_;
  workspace.Relax(src, 0.0, -1);
  heap.push_back({0.0, src});

  // Tally work in locals (registers) and post to the workspace once;
  // see the matching note in ShortestPathAStar.
  uint64_t pops = 0;
  uint64_t edges = 0;
  uint64_t pushes = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), HeapGreater{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    ++pops;
    if (d > workspace.DistanceOf(u)) {
      continue;  // stale entry
    }
    if (u == dst) {
      break;
    }
    for (const HalfEdge& half : g.Neighbours(u)) {
      ++edges;
      // Disabled edges carry weight = +inf, so they never relax.
      const double nd = d + half.weight;
      if (nd < workspace.DistanceOf(half.to)) {
        workspace.Relax(half.to, nd, half.edge);
        ++pushes;
        heap.push_back({nd, half.to});
        std::push_heap(heap.begin(), heap.end(), HeapGreater{});
      }
    }
  }
  workspace.pending_pops_ += pops;
  workspace.pending_edges_ += edges;
  workspace.pending_pushes_ += pushes;

  if (workspace.DistanceOf(dst) == kInfDistance) {
    return std::nullopt;
  }
  return BuildPath(
      g, [&workspace](NodeId n) { return workspace.ViaEdge(n); }, src, dst,
      workspace.DistanceOf(dst));
}

std::vector<double> ShortestDistances(const Graph& g, NodeId src) {
  DijkstraWorkspace workspace;
  std::vector<double> dist;
  ShortestDistancesInto(g, src, workspace, &dist);
  return dist;
}

void ShortestDistancesInto(const Graph& g, NodeId src, DijkstraWorkspace& workspace,
                           std::vector<double>* out) {
  g.FinalizeAdjacency();
  const int n = g.NumNodes();
  workspace.Begin(n);
  auto& heap = workspace.heap_;
  workspace.Relax(src, 0.0, -1);
  heap.push_back({0.0, src});
  uint64_t pops = 0;
  uint64_t edges = 0;
  uint64_t pushes = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), HeapGreater{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    ++pops;
    if (d > workspace.DistanceOf(u)) {
      continue;
    }
    for (const HalfEdge& half : g.Neighbours(u)) {
      ++edges;
      const double nd = d + half.weight;
      if (nd < workspace.DistanceOf(half.to)) {
        workspace.Relax(half.to, nd, half.edge);
        ++pushes;
        heap.push_back({nd, half.to});
        std::push_heap(heap.begin(), heap.end(), HeapGreater{});
      }
    }
  }
  workspace.pending_pops_ += pops;
  workspace.pending_edges_ += edges;
  workspace.pending_pushes_ += pushes;
  out->resize(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    (*out)[static_cast<size_t>(v)] = workspace.DistanceOf(v);
  }
}

}  // namespace leosim::graph
