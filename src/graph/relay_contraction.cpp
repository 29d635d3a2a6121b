#include "graph/relay_contraction.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace leosim::graph {

namespace {

// The near-tie rule: a detour with two-hop sum `sum` is kept when it
// lies within kNearTieRelative of its pair's minimum `best`.
bool NearTie(double sum, double best) {
  return sum <= best * (1.0 + kNearTieRelative);
}

// Paths whose expanded chain failed ExpandPath's check and came from a
// Dijkstra on the source graph instead.
obs::Counter& TieFallbacksCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("route.contract.tie_fallbacks");
  return counter;
}

}  // namespace

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
  // Registered with the first build, so that a run which routes but
  // expands no path reads 0 rather than no counter.
  TieFallbacksCounter();
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
      if (NearTie(d.weight + d.weight2, best_[static_cast<size_t>(d.to)])) {
        AddArc(a, d.to, d.relay, d.up, d.down, d.weight, d.weight2);
      }
    }
    for (const Detour& d : detours_) {
      best_[static_cast<size_t>(d.to)] = kInfDistance;
    }
  }
  offsets_[kept] = static_cast<int32_t>(arcs_.size());
}

void RelayContraction::DropDisabledDirectArcs() {
  // Compacts arcs_ and records_ in place; row n's new begin is written
  // over offsets_[n] only after that row has been read.
  size_t kept_arcs = 0;
  for (size_t n = 0; n < static_cast<size_t>(num_kept_); ++n) {
    const size_t begin = static_cast<size_t>(offsets_[n]);
    const size_t end = static_cast<size_t>(offsets_[n + 1]);
    offsets_[n] = static_cast<int32_t>(kept_arcs);
    for (size_t i = begin; i < end; ++i) {
      const ContractedArcRecord& rec = records_[i];
      if (rec.relay < 0 && !source_->IsEnabled(rec.up)) {
        continue;
      }
      arcs_[kept_arcs] = arcs_[i];
      arcs_[kept_arcs].edge = static_cast<EdgeId>(kept_arcs);
      records_[kept_arcs] = rec;
      ++kept_arcs;
    }
  }
  offsets_[static_cast<size_t>(num_kept_)] = static_cast<int32_t>(kept_arcs);
  arcs_.resize(kept_arcs);
  records_.resize(kept_arcs);
}

namespace {

// True when the chain's hop `hop` into kept node x is Dijkstra's (see
// RelayContraction::ExpandPath), read from x's row alone. Each arc
// x -> a is relaxed in reverse, (d(a) + weight2) + weight, the source
// graph's two additions through its relay; its source edge is
// Record(arc).up.
template <typename Contracted>
bool HopIsTheOnlyTight(const Contracted& c, const DijkstraWorkspace& workspace,
                       NodeId x, const ContractedArcRecord& hop) {
  const double dx = workspace.DistanceOf(x);
  const bool detour = hop.relay >= 0;
  const EdgeId edge = detour ? hop.down : hop.up;  // the chain's edge into x
  bool edge_tight = false;
  double relay_label = kInfDistance;  // min over the arcs via `edge`
  int at_label = 0;
  bool tail_at_label = false;
  for (const ContractedArc& arc : c.Neighbours(x)) {
    const double via = workspace.DistanceOf(arc.to) + arc.weight2;
    const bool tight = via + arc.weight == dx;
    if (!tight && !detour) {
      continue;
    }
    const ContractedArcRecord& rec = c.Record(arc.edge);
    if (tight) {
      if (rec.up != edge) {
        return false;  // a second tight edge into x
      }
      edge_tight = true;
    }
    if (detour && rec.up == edge) {
      if (via < relay_label) {
        relay_label = via;
        at_label = 0;
        tail_at_label = false;
      }
      if (via == relay_label) {
        ++at_label;
        tail_at_label = tail_at_label || rec.down == hop.up;
      }
    }
  }
  return edge_tight && (!detour || (at_label == 1 && tail_at_label));
}

// Maps the chain the search left in `workspace` to the source graph and
// checks each hop (HopIsTheOnlyTight). Returns false, `out` unspecified,
// when a check fails.
template <typename Contracted>
bool ExpandChain(const Contracted& c, NodeId src, NodeId dst,
                 const DijkstraWorkspace& workspace, Path* out) {
  out->nodes.clear();
  out->edges.clear();
  out->distance = workspace.DistanceOf(dst);
  for (NodeId cur = dst; cur != src;) {
    const ContractedArcRecord& rec = c.Record(workspace.ViaEdge(cur));
    if (!HopIsTheOnlyTight(c, workspace, cur, rec)) {
      return false;
    }
    out->nodes.push_back(cur);
    if (rec.relay < 0) {
      out->edges.push_back(rec.up);
    } else {
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

// ExpandPath for a contraction or a residual view of one.
template <typename Contracted>
void ExpandOnSource(const Contracted& c, const Graph& g, NodeId src, NodeId dst,
                    const DijkstraWorkspace& workspace, Path* out) {
  if (!ExpandChain(c, src, dst, workspace, out)) {
    TieFallbacksCounter().Increment();
    *out = *ShortestPath(g, src, dst);
  }
}

}  // namespace

void RelayContraction::ExpandPath(NodeId src, NodeId dst,
                                  const DijkstraWorkspace& workspace,
                                  Path* out) const {
  ExpandOnSource(*this, *source_, src, dst, workspace, out);
}

void ResidualContraction::Reset(const RelayContraction& base) {
  base_ = &base;
  const size_t kept = static_cast<size_t>(base.NumNodes());
  if (rows_.size() < kept) {
    rows_.resize(kept, Row{0, 0, 0});
  }
  const size_t nodes = static_cast<size_t>(base.Source().NumNodes());
  if (near_.size() < nodes) {
    near_.resize(nodes, Near{0, -1, 0.0});
  }
  repairs_ = 0;
  ClearBans();
}

void ResidualContraction::ClearBans() {
  arcs_.clear();
  records_.clear();
  if (++epoch_ == 0) {  // wrapped: clear every stamp
    for (Row& row : rows_) {
      row.stamp = 0;
    }
    epoch_ = 1;
  }
}

EdgeId ResidualContraction::AddRecord(const ContractedArcRecord& record) {
  records_.push_back(record);
  return static_cast<EdgeId>(static_cast<size_t>(base_->NumArcs()) +
                             records_.size() - 1);
}

template <typename Drop>
void ResidualContraction::RewriteRow(NodeId n, const Drop& drop,
                                     std::span<const ContractedArc> extra) {
  // Grow first, geometrically, so the old row (which may live in arcs_)
  // stays valid while it is copied.
  const size_t needed = arcs_.size() + Neighbours(n).size() + extra.size();
  if (arcs_.capacity() < needed) {
    arcs_.reserve(std::max(needed, 2 * arcs_.capacity()));
  }
  const std::span<const ContractedArc> old = Neighbours(n);
  const auto begin = static_cast<uint32_t>(arcs_.size());
  for (const ContractedArc& arc : old) {
    if (!drop(arc)) {
      arcs_.push_back(arc);
    }
  }
  arcs_.insert(arcs_.end(), extra.begin(), extra.end());
  rows_[static_cast<size_t>(n)] = {epoch_, begin, static_cast<uint32_t>(arcs_.size())};
}

void ResidualContraction::RepairPair(NodeId s, NodeId x) {
  const Graph& g = base_->Source();
  const NodeId num_kept = base_->NumNodes();
  if (++near_epoch_ == 0) {  // wrapped: clear every stamp
    for (Near& near : near_) {
      near.stamp = 0;
    }
    near_epoch_ = 1;
  }
  for (const HalfEdge& half : g.Neighbours(s)) {
    if (half.to >= num_kept && half.weight < kInfDistance) {
      near_[static_cast<size_t>(half.to)] = {near_epoch_, half.edge, half.weight};
    }
  }
  // Build's rule over the contracted nodes still linked to both ends:
  // the sums are Build's, w(s, r) + w(r, x), so the kept set is too.
  double best = kInfDistance;
  detours_.clear();
  for (const HalfEdge& half : g.Neighbours(x)) {
    if (half.to < num_kept || !(half.weight < kInfDistance)) {
      continue;
    }
    const Near& near = near_[static_cast<size_t>(half.to)];
    if (near.stamp == near_epoch_) {
      best = std::min(best, near.weight + half.weight);
      detours_.push_back({half.to, near.edge, half.edge, near.weight, half.weight});
    }
  }
  forward_.clear();
  backward_.clear();
  for (const Detour& d : detours_) {
    if (NearTie(d.weight + d.weight2, best)) {
      forward_.push_back(
          {x, AddRecord({s, d.relay, d.up, d.down}), d.weight, d.weight2});
      backward_.push_back(
          {s, AddRecord({x, d.relay, d.down, d.up}), d.weight2, d.weight});
    }
  }
  const auto detour_to = [this](NodeId to) {
    return [this, to](const ContractedArc& arc) {
      return arc.to == to && Record(arc.edge).relay >= 0;
    };
  };
  RewriteRow(s, detour_to(x), forward_);
  RewriteRow(x, detour_to(s), backward_);
  ++repairs_;
}

void ResidualContraction::Ban(std::span<const EdgeId> edges) {
  const Graph& g = base_->Source();
  const NodeId num_kept = base_->NumNodes();
  broken_.clear();
  for (const EdgeId e : edges) {
    const EdgeRecord& edge = g.Edge(e);
    if (edge.a < num_kept && edge.b < num_kept) {
      // A direct edge: its two arcs go.
      const auto direct = [this, e](const ContractedArc& arc) {
        const ContractedArcRecord& rec = Record(arc.edge);
        return rec.relay < 0 && rec.up == e;
      };
      RewriteRow(edge.a, direct, {});
      RewriteRow(edge.b, direct, {});
      continue;
    }
    // An edge (s, r) to a contracted node: the pairs whose kept detours
    // start with it break. The view is symmetric, so s's row lists them all.
    const NodeId s = edge.a < num_kept ? edge.a : edge.b;
    for (const ContractedArc& arc : Neighbours(s)) {
      if (Record(arc.edge).up == e) {
        broken_.push_back(std::minmax(s, arc.to));
      }
    }
  }
  std::sort(broken_.begin(), broken_.end());
  broken_.erase(std::unique(broken_.begin(), broken_.end()), broken_.end());
  for (const auto& [s, x] : broken_) {
    RepairPair(s, x);
  }
}

void ResidualContraction::ExpandPath(NodeId src, NodeId dst,
                                     const DijkstraWorkspace& workspace,
                                     Path* out) const {
  ExpandOnSource(*this, base_->Source(), src, dst, workspace, out);
}

}  // namespace leosim::graph
