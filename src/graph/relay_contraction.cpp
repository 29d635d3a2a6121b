#include "graph/relay_contraction.hpp"

#include <algorithm>
#include <stdexcept>

namespace leosim::graph {

void RelayContraction::AddArc(NodeId tail, NodeId to, NodeId relay, EdgeId up,
                              EdgeId down, double weight, double weight2) {
  const EdgeId id = static_cast<EdgeId>(records_.size());
  arcs_.push_back({to, id, weight, weight2});
  records_.push_back({tail, relay, up, down});
}

void RelayContraction::Build(const Graph& g, int num_kept) {
  if (num_kept < 0 || num_kept > g.NumNodes()) {
    throw std::invalid_argument("contraction must keep between 0 and all nodes");
  }
  g.FinalizeAdjacency();
  source_ = &g;
  num_kept_ = num_kept;
  const size_t kept = static_cast<size_t>(num_kept);
  offsets_.assign(kept + 1, 0);
  arcs_.clear();
  records_.clear();
  best_.assign(kept, kInfDistance);

  // Rows are filled tail by tail, so each is contiguous without a
  // counting pass. A tail's detours are staged with their pair minimum
  // (best_) and emitted in a second pass over the stage, which then
  // resets best_ for the next tail.
  for (NodeId a = 0; a < num_kept; ++a) {
    offsets_[static_cast<size_t>(a)] = static_cast<int32_t>(arcs_.size());
    detours_.clear();
    for (const HalfEdge& up : g.Neighbours(a)) {
      if (!(up.weight < kInfDistance)) {
        continue;  // disabled
      }
      if (up.to < num_kept) {
        AddArc(a, up.to, -1, up.edge, -1, up.weight, 0.0);
        continue;
      }
      for (const HalfEdge& down : g.Neighbours(up.to)) {
        if (down.to >= num_kept) {
          throw std::invalid_argument(
              "contracted node has a contracted neighbour");
        }
        if (down.to == a || !(down.weight < kInfDistance)) {
          continue;
        }
        double& best = best_[static_cast<size_t>(down.to)];
        best = std::min(best, up.weight + down.weight);
        detours_.push_back(
            {down.to, up.to, up.edge, down.edge, up.weight, down.weight});
      }
    }
    for (const Detour& d : detours_) {
      if (d.weight + d.weight2 <=
          best_[static_cast<size_t>(d.to)] * (1.0 + kNearTieRelative)) {
        AddArc(a, d.to, d.relay, d.up, d.down, d.weight, d.weight2);
      }
    }
    for (const Detour& d : detours_) {
      best_[static_cast<size_t>(d.to)] = kInfDistance;
    }
  }
  offsets_[kept] = static_cast<int32_t>(arcs_.size());
}

bool RelayContraction::ExpandPath(NodeId src, NodeId dst,
                                  const DijkstraWorkspace& workspace,
                                  Path* out) const {
  const Graph& g = *source_;
  const auto label = [&](NodeId v) {
    if (v < num_kept_) {
      return workspace.DistanceOf(v);
    }
    double best = kInfDistance;
    for (const HalfEdge& half : g.Neighbours(v)) {
      best = std::min(best, workspace.DistanceOf(half.to) + half.weight);
    }
    return best;
  };
  // True when `chain_edge` is x's one tight edge in the source graph.
  const auto only_tight = [&](NodeId x, EdgeId chain_edge) {
    const double dx = label(x);
    int tight = 0;
    bool chain_tight = false;
    for (const HalfEdge& half : g.Neighbours(x)) {
      if (label(half.to) + half.weight == dx) {
        ++tight;
        chain_tight = chain_tight || half.edge == chain_edge;
      }
    }
    return tight == 1 && chain_tight;
  };

  out->nodes.clear();
  out->edges.clear();
  out->distance = workspace.DistanceOf(dst);
  for (NodeId cur = dst; cur != src;) {
    const ArcRecord& rec = records_[static_cast<size_t>(workspace.ViaEdge(cur))];
    if (rec.relay < 0) {
      if (!only_tight(cur, rec.up)) {
        return false;
      }
      out->nodes.push_back(cur);
      out->edges.push_back(rec.up);
    } else {
      if (!only_tight(cur, rec.down) || !only_tight(rec.relay, rec.up)) {
        return false;
      }
      out->nodes.push_back(cur);
      out->edges.push_back(rec.down);
      out->nodes.push_back(rec.relay);
      out->edges.push_back(rec.up);
    }
    cur = rec.tail;
  }
  out->nodes.push_back(src);
  std::reverse(out->nodes.begin(), out->nodes.end());
  std::reverse(out->edges.begin(), out->edges.end());
  return true;
}

}  // namespace leosim::graph
