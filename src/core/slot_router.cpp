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

  {
    const obs::Span span("route.components");
    graph::ConnectedComponentsInto(snap.graph, &ws->labels, &ws->stack);
  }
  const auto label_of = [&snap, ws](int city) {
    return ws->labels[static_cast<size_t>(snap.CityNode(city))];
  };
  size_t reachable = 0;
  for (const CityPair& p : pairs) {
    reachable += label_of(p.a) == label_of(p.b) ? 1 : 0;
  }
  const bool alt = reachable >= kAltMinQueries;
  if (alt) {
    const obs::Span span("route.alt_table");
    ws->landmarks.Rebuild(snap.graph, ws->dijkstra);
  }
  const size_t tree_threshold = alt ? kAltTreeThreshold : kTreeBatchThreshold;

  for (const SourceGroup& group : groups) {
    const graph::NodeId src = snap.CityNode(group.src_city);
    const int src_label = ws->labels[static_cast<size_t>(src)];
    ws->targets.clear();
    ws->target_pairs.clear();
    for (const int i : group.pair_indices) {
      const graph::NodeId dst = snap.CityNode(pairs[static_cast<size_t>(i)].b);
      // Different component: unreachable; the answer stays +inf.
      if (ws->labels[static_cast<size_t>(dst)] == src_label) {
        ws->targets.push_back(dst);
        ws->target_pairs.push_back(i);
      }
    }
    if (ws->targets.empty()) {
      continue;
    }
    if (ws->targets.size() >= tree_threshold) {
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
      // Plain lambdas (not graph::PotentialFn) so they inline into the
      // A* relax loop.
      std::optional<graph::Path> path;
      if (alt) {
        ws->landmarks.SetDestination(dst);
        const graph::LandmarkTable& table = ws->landmarks;
        const auto potential = [&table](graph::NodeId v) {
          return table.Potential(v);
        };
        path = graph::ShortestPathAStar(snap.graph, src, dst, ws->dijkstra,
                                        potential);
      } else {
        const geo::Vec3 dst_pos = snap.node_ecef[static_cast<size_t>(dst)];
        const auto potential = [&snap, &dst_pos](graph::NodeId v) {
          return EuclideanLatencyPotential(snap.node_ecef, v, dst_pos);
        };
        path = graph::ShortestPathAStar(snap.graph, src, dst, ws->dijkstra,
                                        potential);
      }
      if (path.has_value()) {
        emit(ws->target_pairs[j], *path);
      }
    }
  }
}

}  // namespace leosim::core
