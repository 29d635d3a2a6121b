#include "core/slot_router.hpp"

#include <limits>

#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "graph/disjoint_paths.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Arcs of every relay contraction the router routes on.
obs::Counter& ContractArcsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("route.contract.arcs");
  return counter;
}

// Satellite pairs whose detours the residual view recomputed after a ban.
obs::Counter& ContractRepairsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("route.contract.repairs");
  return counter;
}

// Builds ws->contraction on snap's graph as it stands.
const graph::RelayContraction& BuildContraction(
    const NetworkModel::Snapshot& snap, SweepWorkspace* ws) {
  graph::RelayContraction& contraction = ws->contraction;
  {
    const obs::Span span("route.contract");
    contraction.Build(snap.graph, snap.num_sats + snap.num_cities);
  }
  ContractArcsCounter().Add(static_cast<uint64_t>(contraction.NumArcs()));
  return contraction;
}

}  // namespace

SlotPlan::SlotPlan(const graph::RelayContraction& g,
                   const NetworkModel::Snapshot& snap,
                   const std::vector<CityPair>& pairs, size_t searches_per_pair,
                   SweepWorkspace* ws)
    : snap_(snap), ws_(ws) {
  {
    const obs::Span span("route.components");
    graph::ConnectedComponentsInto(g, &ws->labels, &ws->stack);
  }
  size_t reachable = 0;
  for (const CityPair& p : pairs) {
    reachable += ws->labels[static_cast<size_t>(snap.CityNode(p.a))] ==
                         ws->labels[static_cast<size_t>(snap.CityNode(p.b))]
                     ? 1
                     : 0;
  }
  alt_ = reachable * searches_per_pair >= kAltMinQueries;
  if (alt_) {
    const obs::Span span("route.alt_table");
    ws->landmarks.Rebuild(g, ws->dijkstra);
  }
}

graph::NodeId SlotPlan::CollectTargets(const SourceGroup& group,
                                       const std::vector<CityPair>& pairs) {
  const graph::NodeId src = snap_.CityNode(group.src_city);
  const int src_label = ws_->labels[static_cast<size_t>(src)];
  ws_->targets.clear();
  ws_->target_pairs.clear();
  for (const int i : group.pair_indices) {
    const graph::NodeId dst = snap_.CityNode(pairs[static_cast<size_t>(i)].b);
    // Different component: unreachable, no search.
    if (ws_->labels[static_cast<size_t>(dst)] == src_label) {
      ws_->targets.push_back(dst);
      ws_->target_pairs.push_back(i);
    }
  }
  return src;
}

namespace {

// RouteSlotPairs on `contraction`, a relay contraction of snap's graph
// as it stands.
void RouteOnContraction(const graph::RelayContraction& contraction,
                        const NetworkModel::Snapshot& snap,
                        const std::vector<CityPair>& pairs,
                        const std::vector<SourceGroup>& groups, bool want_paths,
                        SweepWorkspace* ws, SlotRoutes* out) {
  const size_t n = pairs.size();
  out->rtt.assign(n, kInf);
  out->begin.assign(want_paths ? n : 0, 0);
  out->end.assign(want_paths ? n : 0, 0);
  out->nodes.clear();

  // Records one routed pair's answer from the search that just settled
  // dst in ws->dijkstra: round-trip time (out and back over the same
  // path) and, when wanted, the full-graph path's node chain.
  graph::Path path;
  const auto emit = [&](int pair, graph::NodeId src, graph::NodeId dst) {
    const size_t i = static_cast<size_t>(pair);
    out->rtt[i] = 2.0 * ws->dijkstra.DistanceOf(dst);
    if (!want_paths) {
      return;
    }
    contraction.ExpandPath(src, dst, ws->dijkstra, &path);
    out->begin[i] = static_cast<uint32_t>(out->nodes.size());
    out->nodes.insert(out->nodes.end(), path.nodes.begin(), path.nodes.end());
    out->end[i] = static_cast<uint32_t>(out->nodes.size());
  };

  SlotPlan plan(contraction, snap, pairs, 1, ws);
  for (const SourceGroup& group : groups) {
    const graph::NodeId src = plan.CollectTargets(group, pairs);
    if (ws->targets.empty()) {
      continue;
    }
    if (ws->targets.size() >= plan.tree_threshold()) {
      const obs::Span span("route.tree");
      ws->tree.Build(contraction, src, ws->targets, ws->dijkstra);
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        emit(ws->target_pairs[j], src, ws->targets[j]);
      }
      continue;
    }
    const obs::Span span("route.astar");
    for (size_t j = 0; j < ws->targets.size(); ++j) {
      const graph::NodeId dst = ws->targets[j];
      const bool reached = plan.WithPotential(dst, [&](const auto& potential) {
        return graph::RunAStar(contraction, src, dst, ws->dijkstra, potential);
      });
      if (reached) {
        emit(ws->target_pairs[j], src, dst);
      }
    }
  }
}

}  // namespace

void RouteSlotPairs(const NetworkModel::Snapshot& snap,
                    const std::vector<CityPair>& pairs,
                    const std::vector<SourceGroup>& groups, bool want_paths,
                    SweepWorkspace* ws, SlotRoutes* out) {
  RouteOnContraction(BuildContraction(snap, ws), snap, pairs, groups,
                     want_paths, ws, out);
}

void RouteSlotPairsHybridAndBentPipe(NetworkModel::Snapshot& snap,
                                     const std::vector<CityPair>& pairs,
                                     const std::vector<SourceGroup>& groups,
                                     SweepWorkspace* ws, SlotRoutes* hybrid_out,
                                     SlotRoutes* bp_out) {
  RouteOnContraction(BuildContraction(snap, ws), snap, pairs, groups,
                     /*want_paths=*/false, ws, hybrid_out);
  // ISLs join satellites, so masking them leaves every detour arc as it
  // is and the hybrid contraction only loses their direct arcs. The
  // SlotPlan builds any landmark table on the masked contraction: the
  // hybrid table's bounds stay admissible there but are far looser.
  for (const graph::EdgeId e : snap.isl_edges) {
    snap.graph.SetEnabled(e, false);
  }
  graph::RelayContraction& contraction = ws->contraction;  // the hybrid one
  {
    const obs::Span span("route.contract_masked");
    contraction.DropDisabledDirectArcs();
  }
  ContractArcsCounter().Add(static_cast<uint64_t>(contraction.NumArcs()));
  RouteOnContraction(contraction, snap, pairs, groups, /*want_paths=*/false, ws,
                     bp_out);
  for (const graph::EdgeId e : snap.isl_edges) {
    snap.graph.SetEnabled(e, true);
  }
}

void RouteSlotDisjointPaths(NetworkModel::Snapshot& snap,
                            const std::vector<CityPair>& pairs,
                            const std::vector<SourceGroup>& groups, int k,
                            SweepWorkspace* ws,
                            std::vector<std::vector<graph::Path>>* paths) {
  paths->assign(pairs.size(), {});
  const graph::RelayContraction& contraction = BuildContraction(snap, ws);
  SlotPlan plan(contraction, snap, pairs, static_cast<size_t>(k), ws);
  ws->residual.Reset(contraction);
  {
    const obs::Span span("route.disjoint");
    for (const SourceGroup& group : groups) {
      const graph::NodeId src = plan.CollectTargets(group, pairs);
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        const graph::NodeId dst = ws->targets[j];
        (*paths)[static_cast<size_t>(ws->target_pairs[j])] =
            plan.WithPotential(dst, [&](const auto& potential) {
              return graph::KEdgeDisjointShortestPaths(snap.graph, ws->residual,
                                                       src, dst, k, ws->dijkstra,
                                                       potential);
            });
      }
    }
  }
  ContractRepairsCounter().Add(ws->residual.repairs());
}

}  // namespace leosim::core
