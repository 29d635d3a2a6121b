#include "graph/dijkstra.hpp"

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

std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst) {
  DijkstraWorkspace workspace;
  return ShortestPath(g, src, dst, workspace);
}

std::optional<Path> ShortestPath(const Graph& g, NodeId src, NodeId dst,
                                 DijkstraWorkspace& workspace) {
  RunDijkstra(g, src, workspace, [dst](NodeId u) { return u == dst; });
  if (workspace.DistanceOf(dst) == kInfDistance) {
    return std::nullopt;
  }
  return WalkBack(g, workspace, src, dst);
}

}  // namespace leosim::graph
