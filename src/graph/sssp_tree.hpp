// One-to-many shortest paths: a single Dijkstra from one source that
// stops as soon as every requested target is settled. The temporal
// studies route many city pairs per snapshot, and the pair sets reuse
// source cities — batching all of a source's destinations into one
// search replaces m single-pair queries with one ball bounded by the
// furthest target, making routing cost a function of unique sources
// rather than pair count.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/dijkstra.hpp"

namespace leosim::graph {

// A search-tree view over a DijkstraWorkspace. Build() runs one
// multi-target Dijkstra; DistanceTo()/PathTo() then answer any of the
// requested targets.
//
// Determinism contract (regression-tested in graph_sssp_tree_test):
// the heap evolution of the batched search is exactly the single-pair
// ShortestPath(g, src, t, ws) run continued past each target, so the
// distance AND the predecessor chain reported for every requested
// target are bit-identical to the per-pair query — not merely close.
//
// The tree borrows the workspace's epoch-stamped state: results are
// valid only until the next search begun with that workspace (including
// another Build). Extract what you need before reusing the workspace.
// Like the workspace, a tree must not be shared across threads. Target
// marks are epoch-stamped the same way the workspace's node states are,
// so repeated Build() calls reset in O(touched), not O(n).
class ShortestPathTree {
 public:
  ShortestPathTree() = default;
  ShortestPathTree(const ShortestPathTree&) = delete;
  ShortestPathTree& operator=(const ShortestPathTree&) = delete;

  // Runs Dijkstra from src until every node in `targets` is settled or
  // the reachable component is exhausted. Duplicate targets are fine.
  // Instantiated for Graph and RelayContraction (see RunDijkstra).
  template <typename Adjacency>
  void Build(const Adjacency& g, NodeId src, std::span<const NodeId> targets,
             DijkstraWorkspace& workspace);

  NodeId source() const { return src_; }

  // Distance to a target of the last Build (kInfDistance when it was
  // unreachable). Only nodes passed as targets are guaranteed settled;
  // other nodes may report transient over-estimates.
  double DistanceTo(NodeId n) const;

  // Full path to a target of the last Build; nullopt when unreachable.
  // Only for trees built on a Graph; a tree on a relay contraction
  // becomes paths through the contraction's ExpandPath.
  std::optional<Path> PathTo(NodeId n) const;

 private:
  const Graph* graph_{nullptr};  // null when the last Build was not on a Graph
  DijkstraWorkspace* workspace_{nullptr};
  NodeId src_{-1};
  // Target marks, epoch-stamped: node n was requested by the current
  // Build iff target_stamp_[n] == target_epoch_.
  std::vector<uint32_t> target_stamp_;
  uint32_t target_epoch_{0};
};

}  // namespace leosim::graph
