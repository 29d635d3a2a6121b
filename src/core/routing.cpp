#include "core/routing.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/slot_router.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/suurballe.hpp"
#include "graph/yen.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

// Candidate pool size for the min-max-utilisation selection.
constexpr int kYenCandidates = 8;
// Congestion penalty strength for kCongestionAware.
constexpr double kCongestionAlpha = 2.0;

double PathMaxUtilisation(const graph::Graph& g, const graph::Path& path,
                          const RoutingState& state) {
  double worst = 0.0;
  for (const graph::EdgeId e : path.edges) {
    const double cap = std::max(g.Edge(e).capacity, 1e-9);
    worst = std::max(worst, (state.edge_load[static_cast<size_t>(e)] + 1.0) / cap);
  }
  return worst;
}

void CommitPath(const graph::Path& path, RoutingState& state) {
  for (const graph::EdgeId e : path.edges) {
    state.edge_load[static_cast<size_t>(e)] += 1.0;
  }
}

std::vector<graph::Path> RouteMinMaxUtilisation(graph::Graph& g, graph::NodeId src,
                                                graph::NodeId dst, int k,
                                                RoutingState& state) {
  std::vector<graph::Path> candidates =
      graph::KShortestPaths(g, src, dst, std::max(kYenCandidates, 2 * k));
  std::vector<graph::Path> chosen;
  std::set<graph::EdgeId> used_edges;
  while (static_cast<int>(chosen.size()) < k && !candidates.empty()) {
    // Pick the candidate minimising the post-selection max utilisation;
    // ties go to the lower-latency path (candidates are sorted by Yen).
    int best = -1;
    double best_util = 0.0;
    for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
      const graph::Path& c = candidates[static_cast<size_t>(i)];
      const bool disjoint = std::none_of(
          c.edges.begin(), c.edges.end(),
          [&](graph::EdgeId e) { return used_edges.contains(e); });
      if (!disjoint) {
        continue;
      }
      const double util = PathMaxUtilisation(g, c, state);
      if (best < 0 || util < best_util - 1e-12) {
        best = i;
        best_util = util;
      }
    }
    if (best < 0) {
      break;  // no edge-disjoint candidate left
    }
    graph::Path path = std::move(candidates[static_cast<size_t>(best)]);
    candidates.erase(candidates.begin() + best);
    used_edges.insert(path.edges.begin(), path.edges.end());
    CommitPath(path, state);
    chosen.push_back(std::move(path));
  }

  // Yen candidates cluster around the shortest route (they usually share
  // the first/last radio hops), so the disjointness constraint can exhaust
  // them early. Fill the remaining sub-flows greedily on the residual
  // graph, exactly like the paper's baseline scheme.
  if (static_cast<int>(chosen.size()) < k) {
    std::vector<graph::EdgeId> disabled_here;
    for (const graph::EdgeId e : used_edges) {
      if (g.IsEnabled(e)) {
        g.SetEnabled(e, false);
        disabled_here.push_back(e);
      }
    }
    std::vector<graph::Path> extra = graph::KEdgeDisjointShortestPaths(
        g, src, dst, k - static_cast<int>(chosen.size()));
    for (const graph::EdgeId e : disabled_here) {
      g.SetEnabled(e, true);
    }
    for (graph::Path& p : extra) {
      CommitPath(p, state);
      chosen.push_back(std::move(p));
    }
  }
  return chosen;
}

std::vector<graph::Path> RouteCongestionAware(graph::Graph& g, graph::NodeId src,
                                              graph::NodeId dst, int k,
                                              RoutingState& state) {
  // Greedy disjoint paths over penalised weights. We temporarily rebuild a
  // weight view by running Dijkstra over a penalised copy of the graph.
  graph::Graph penalised(g.NumNodes());
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    const graph::EdgeRecord& rec = g.Edge(e);
    const double util =
        state.edge_load[static_cast<size_t>(e)] / std::max(rec.capacity, 1e-9);
    const graph::EdgeId mirror = penalised.AddEdge(
        rec.a, rec.b, rec.weight * (1.0 + kCongestionAlpha * util), rec.capacity);
    penalised.SetEnabled(mirror, rec.enabled);
  }
  std::vector<graph::Path> paths =
      graph::KEdgeDisjointShortestPaths(penalised, src, dst, k);
  // Re-express distances in true latency (edge ids match by construction).
  for (graph::Path& p : paths) {
    p.distance = 0.0;
    for (const graph::EdgeId e : p.edges) {
      p.distance += g.Edge(e).weight;
    }
    CommitPath(p, state);
  }
  return paths;
}

// The root span of one RunThroughputWithPolicy call, named per policy so
// a profile splits the ablation's time by policy.
const char* PolicySpanName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kDisjointGreedy:
      return "study.policy.disjoint-greedy";
    case RoutingPolicy::kDisjointOptimalPair:
      return "study.policy.optimal-pair";
    case RoutingPolicy::kMinMaxUtilisation:
      return "study.policy.min-max-utilisation";
    case RoutingPolicy::kCongestionAware:
      return "study.policy.congestion-aware";
  }
  return "study.policy.unknown";
}

}  // namespace

std::string_view ToString(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kDisjointGreedy:
      return "disjoint-greedy";
    case RoutingPolicy::kDisjointOptimalPair:
      return "optimal-pair";
    case RoutingPolicy::kMinMaxUtilisation:
      return "min-max-utilisation";
    case RoutingPolicy::kCongestionAware:
      return "congestion-aware";
  }
  return "unknown";
}

std::vector<graph::Path> RoutePair(graph::Graph& g, graph::NodeId src,
                                   graph::NodeId dst, int k, RoutingPolicy policy,
                                   RoutingState& state) {
  if (state.edge_load.size() != static_cast<size_t>(g.NumEdges())) {
    state.edge_load.assign(static_cast<size_t>(g.NumEdges()), 0.0);
  }
  switch (policy) {
    case RoutingPolicy::kDisjointGreedy:
      throw std::invalid_argument(
          "RoutePair: disjoint-greedy routes through RunThroughputWithPolicy");
    case RoutingPolicy::kDisjointOptimalPair: {
      std::vector<graph::Path> paths;
      if (const auto pair = graph::ShortestDisjointPair(g, src, dst)) {
        paths.push_back(pair->first);
        if (k >= 2) {
          paths.push_back(pair->second);
        }
      } else if (const auto single = graph::ShortestPath(g, src, dst)) {
        paths.push_back(*single);
      }
      for (const graph::Path& p : paths) {
        CommitPath(p, state);
      }
      return paths;
    }
    case RoutingPolicy::kMinMaxUtilisation:
      return RouteMinMaxUtilisation(g, src, dst, k, state);
    case RoutingPolicy::kCongestionAware:
      return RouteCongestionAware(g, src, dst, k, state);
  }
  return {};
}

PolicyThroughputResult RunThroughputWithPolicy(const NetworkModel& model,
                                               const std::vector<CityPair>& pairs,
                                               int k, double time_sec,
                                               RoutingPolicy policy) {
  const obs::Span span(PolicySpanName(policy));
  CheckPathCount(k);
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, &ws.snapshot);
  std::vector<std::vector<graph::Path>> paths_of;
  if (policy == RoutingPolicy::kDisjointGreedy) {
    RouteSlotDisjointPaths(snap, pairs, GroupPairsBySource(pairs), k, &ws, &paths_of);
  } else {
    RoutingState state;
    paths_of.reserve(pairs.size());
    for (const CityPair& pair : pairs) {
      paths_of.push_back(RoutePair(snap.graph, snap.CityNode(pair.a),
                                   snap.CityNode(pair.b), k, policy, state));
    }
  }

  PolicyThroughputResult result;
  result.throughput = ThroughputOf(
      FlowsFromPaths(snap.graph, paths_of, CapacityModel::kSharedPerLink));
  double latency_sum = 0.0;
  for (const std::vector<graph::Path>& paths : paths_of) {
    for (const graph::Path& path : paths) {
      latency_sum += path.distance;
    }
  }
  if (result.throughput.subflows > 0) {
    result.mean_path_latency_ms = latency_sum / result.throughput.subflows;
  }
  return result;
}

}  // namespace leosim::core
