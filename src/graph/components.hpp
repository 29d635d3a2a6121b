// Connected components over enabled edges; used for the paper's §5
// observation that 25-32% of Starlink satellites are disconnected from the
// network at any time under BP-only connectivity.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace leosim::graph {

struct Components {
  std::vector<int> label;  // component id per node, 0..count-1
  int count{0};
};

Components ConnectedComponents(const Graph& g);

// As above into caller-owned storage (`label` is resized to NumNodes(),
// `stack` is DFS scratch), so a per-snapshot loop performs no
// steady-state allocation. Returns the component count.
//
// The temporal studies use the labels as a reachability precheck: a
// pair in different components is unreachable without running Dijkstra,
// which otherwise explores the source's whole component before
// reporting failure — by far the most expensive query shape, and common
// under bent-pipe connectivity where a large satellite fraction is
// isolated (paper §5).
//
// Runs on Graph and RelayContraction alike (see RunDijkstra in
// graph/dijkstra.hpp); an arc of +inf weight is a disabled edge.
template <typename Adjacency>
int ConnectedComponentsInto(const Adjacency& g, std::vector<int>* label,
                            std::vector<NodeId>* stack);

// Number of nodes in `candidates` that cannot reach any node in `targets`
// over enabled edges.
int CountDisconnected(const Graph& g, const std::vector<NodeId>& candidates,
                      const std::vector<NodeId>& targets);

}  // namespace leosim::graph
