#include "graph/sssp_tree.hpp"

#include <algorithm>

namespace leosim::graph {

namespace {

struct HeapGreater {
  bool operator()(const DijkstraWorkspace::QueueEntry& a,
                  const DijkstraWorkspace::QueueEntry& b) const {
    return a.distance > b.distance;
  }
};

}  // namespace

void ShortestPathTree::Build(const Graph& g, NodeId src,
                             std::span<const NodeId> targets,
                             DijkstraWorkspace& workspace) {
  graph_ = &g;
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

  // The loop below is ShortestPath()'s relax loop verbatim, with the
  // single-target break generalised to "every marked target settled".
  // Identical heap evolution => identical settled distances and via
  // edges for every target (see the header's determinism contract).
  g.FinalizeAdjacency();
  workspace.Begin(g.NumNodes());
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
      continue;  // stale entry
    }
    // u settles exactly once (strict `<` in the relax below), so one
    // decrement per marked target.
    if (target_stamp_[static_cast<size_t>(u)] == target_epoch_ &&
        --pending == 0) {
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
}

double ShortestPathTree::DistanceTo(NodeId n) const {
  return workspace_->DistanceOf(n);
}

std::optional<Path> ShortestPathTree::PathTo(NodeId n) const {
  if (workspace_->DistanceOf(n) == kInfDistance) {
    return std::nullopt;
  }
  Path path;
  path.distance = workspace_->DistanceOf(n);
  for (NodeId cur = n; cur != src_;) {
    const EdgeId e = workspace_->ViaEdge(cur);
    path.edges.push_back(e);
    path.nodes.push_back(cur);
    cur = graph_->OtherEnd(e, cur);
  }
  path.nodes.push_back(src_);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

}  // namespace leosim::graph
