// k edge-disjoint shortest paths (paper §5): the greedy scheme the paper
// describes — find the shortest path, remove its edges, repeat up to k
// times. (This is intentionally NOT Suurballe's min-total-cost algorithm;
// the paper routes each sub-flow on the shortest path remaining.)
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/relay_contraction.hpp"

namespace leosim::graph {

// Returns up to k edge-disjoint paths, shortest first. The graph is
// temporarily mutated (path edges disabled) and restored before returning;
// edges disabled by the caller beforehand stay disabled.
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k);

// As above, reusing `workspace` scratch across the up-to-k searches.
// Results are identical to the workspace-free overload.
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k,
                                             DijkstraWorkspace& workspace);

// As above with the first path already computed (typically extracted from
// a ShortestPathTree shared across every pair of one source). `first`
// must be a shortest src->dst path on the graph as currently enabled;
// the function disables its edges, finds up to k-1 further paths, and
// restores. Output is identical to the from-scratch overloads because
// the greedy scheme's first iteration is exactly that shortest path.
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, Path first, int k,
                                             DijkstraWorkspace& workspace);

namespace detail {

// Shared greedy loop: takes `*first` when non-null, then keeps taking
// the path `search(taken)` returns, disabling each taken path's edges,
// until k paths exist or the search returns nullopt; finally restores
// every edge this call disabled. `taken` is the paths taken so far, so
// a search can patch what it routes on for the last one's edges.
template <typename Search>
std::vector<Path> GreedyDisjointPaths(Graph& g, Path* first, int k,
                                      const Search& search) {
  std::vector<Path> paths;
  std::vector<EdgeId> disabled_here;
  const auto take = [&](Path&& path) {
    for (const EdgeId e : path.edges) {
      g.SetEnabled(e, false);
      disabled_here.push_back(e);
    }
    paths.push_back(std::move(path));
  };
  if (k > 0 && first != nullptr) {
    take(std::move(*first));
  }
  while (static_cast<int>(paths.size()) < k) {
    std::optional<Path> path = search(std::as_const(paths));
    if (!path.has_value()) {
      break;
    }
    take(std::move(*path));
  }
  for (const EdgeId e : disabled_here) {
    g.SetEnabled(e, true);
  }
  return paths;
}

}  // namespace detail

// Contracted overload: every search is RunAStar with `potential` on
// `residual`, a residual view of a RelayContraction built on g as the
// caller passed it (ResidualContraction::Reset), whose two end nodes are
// kept nodes. The view's bans are cleared first; after each taken path
// it bans that path's edges, which the loop has just disabled on g. Each
// search's path comes from ResidualContraction::ExpandPath, which gives
// graph::ShortestPath's path on g as masked then. The potential must be
// strictly admissible on the contraction (the slot's landmark table on
// it, or the Euclidean bound); one potential serves all k searches,
// since disabling edges only lengthens distances and so keeps it
// strictly admissible on every residual graph. Under these
// preconditions the output equals the plain overload's edge for edge.
template <typename Potential>
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, ResidualContraction& residual,
                                             NodeId src, NodeId dst, int k,
                                             DijkstraWorkspace& workspace,
                                             const Potential& potential) {
  residual.ClearBans();
  return detail::GreedyDisjointPaths(
      g, nullptr, k, [&](const std::vector<Path>& taken) -> std::optional<Path> {
        if (!taken.empty()) {
          residual.Ban(taken.back().edges);
        }
        if (!RunAStar(residual, src, dst, workspace, potential)) {
          return std::nullopt;
        }
        Path path;
        residual.ExpandPath(src, dst, workspace, &path);
        return path;
      });
}

}  // namespace leosim::graph
