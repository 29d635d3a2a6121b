#include "graph/sssp_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "graph/relay_contraction.hpp"

namespace leosim::graph {

template <typename Adjacency>
void ShortestPathTree::Build(const Adjacency& g, NodeId src,
                             std::span<const NodeId> targets,
                             DijkstraWorkspace& workspace) {
  if constexpr (std::is_same_v<Adjacency, Graph>) {
    graph_ = &g;
  } else {
    graph_ = nullptr;
  }
  workspace_ = &workspace;
  src_ = src;

  const size_t n = static_cast<size_t>(g.NumNodes());
  if (target_stamp_.size() < n) {
    target_stamp_.resize(n, 0);
  }
  if (++target_epoch_ == 0) {
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0u);
    target_epoch_ = 1;
  }
  // Mark targets; the stamp check dedups repeated entries so `pending`
  // counts distinct targets.
  int pending = 0;
  for (const NodeId t : targets) {
    uint32_t& stamp = target_stamp_[static_cast<size_t>(t)];
    if (stamp != target_epoch_) {
      stamp = target_epoch_;
      ++pending;
    }
  }

  // ShortestPath()'s relax loop with the single-target stop generalised
  // to "every marked target settled". Identical heap evolution =>
  // identical settled distances and via edges for every target (see the
  // header's determinism contract). u settles exactly once (strict `<`
  // in the relax), so one decrement per marked target.
  RunDijkstra(g, src, workspace, [this, &pending](NodeId u) {
    return target_stamp_[static_cast<size_t>(u)] == target_epoch_ &&
           --pending == 0;
  });
}

template void ShortestPathTree::Build(const Graph&, NodeId, std::span<const NodeId>,
                                      DijkstraWorkspace&);
template void ShortestPathTree::Build(const RelayContraction&, NodeId,
                                      std::span<const NodeId>, DijkstraWorkspace&);

double ShortestPathTree::DistanceTo(NodeId n) const {
  return workspace_->DistanceOf(n);
}

std::optional<Path> ShortestPathTree::PathTo(NodeId n) const {
  if (graph_ == nullptr) {
    throw std::logic_error("ShortestPathTree::PathTo needs a tree built on a Graph");
  }
  if (workspace_->DistanceOf(n) == kInfDistance) {
    return std::nullopt;
  }
  return WalkBack(*graph_, *workspace_, src_, n);
}

}  // namespace leosim::graph
