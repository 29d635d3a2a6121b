#include "core/slot_router.hpp"

#include <algorithm>
#include <limits>

#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

SlotPlan::SlotPlan(const NetworkModel::Snapshot& snap,
                   const std::vector<CityPair>& pairs, size_t searches_per_pair,
                   SweepWorkspace* ws)
    : snap_(snap), ws_(ws) {
  {
    const obs::Span span("route.components");
    graph::ConnectedComponentsInto(snap.graph, &ws->labels, &ws->stack);
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
    ws->landmarks.Rebuild(snap.graph, ws->dijkstra);
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

void RouteSlotPairs(const NetworkModel::Snapshot& snap,
                    const std::vector<CityPair>& pairs,
                    const std::vector<SourceGroup>& groups, bool want_paths,
                    SweepWorkspace* ws, SlotRoutes* out) {
  const size_t n = pairs.size();
  out->rtt.assign(n, kInf);
  out->begin.assign(want_paths ? n : 0, 0);
  out->end.assign(want_paths ? n : 0, 0);
  out->nodes.clear();
  // Records one routed pair's answer: round-trip time (out and back over
  // the same path) and, when wanted, the sorted node run.
  const auto emit = [out, want_paths](int pair, const graph::Path& path) {
    const size_t i = static_cast<size_t>(pair);
    out->rtt[i] = 2.0 * path.distance;
    if (want_paths) {
      out->begin[i] = static_cast<uint32_t>(out->nodes.size());
      out->nodes.insert(out->nodes.end(), path.nodes.begin(), path.nodes.end());
      out->end[i] = static_cast<uint32_t>(out->nodes.size());
      std::sort(out->nodes.begin() + out->begin[i], out->nodes.end());
    }
  };

  SlotPlan plan(snap, pairs, 1, ws);
  for (const SourceGroup& group : groups) {
    const graph::NodeId src = plan.CollectTargets(group, pairs);
    if (ws->targets.empty()) {
      continue;
    }
    if (ws->targets.size() >= plan.tree_threshold()) {
      const obs::Span span("route.tree");
      ws->tree.Build(snap.graph, src, ws->targets, ws->dijkstra);
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        if (want_paths) {
          emit(ws->target_pairs[j], *ws->tree.PathTo(ws->targets[j]));
        } else {
          out->rtt[static_cast<size_t>(ws->target_pairs[j])] =
              2.0 * ws->tree.DistanceTo(ws->targets[j]);
        }
      }
      continue;
    }
    const obs::Span span("route.astar");
    for (size_t j = 0; j < ws->targets.size(); ++j) {
      const graph::NodeId dst = ws->targets[j];
      const std::optional<graph::Path> path =
          plan.WithPotential(dst, [&](const auto& potential) {
            return graph::ShortestPathAStar(snap.graph, src, dst, ws->dijkstra,
                                            potential);
          });
      if (path.has_value()) {
        emit(ws->target_pairs[j], *path);
      }
    }
  }
}

}  // namespace leosim::core
