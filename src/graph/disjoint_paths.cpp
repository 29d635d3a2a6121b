#include "graph/disjoint_paths.hpp"

namespace leosim::graph {

std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k) {
  DijkstraWorkspace workspace;
  return KEdgeDisjointShortestPaths(g, src, dst, k, workspace);
}

std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k,
                                             DijkstraWorkspace& workspace) {
  return detail::GreedyDisjointPaths(g, nullptr, k, [&](const std::vector<Path>&) {
    return ShortestPath(g, src, dst, workspace);
  });
}

std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, Path first, int k,
                                             DijkstraWorkspace& workspace) {
  const NodeId src = first.nodes.front();
  const NodeId dst = first.nodes.back();
  return detail::GreedyDisjointPaths(g, &first, k, [&](const std::vector<Path>&) {
    return ShortestPath(g, src, dst, workspace);
  });
}

}  // namespace leosim::graph
