// The plain oracle of the flow workloads, shared by the tests that hold
// core::RouteThroughputPaths with core::FlowsFromPaths, the throughput
// studies and the greedy routing-policy row to it: per pair,
// graph::KEdgeDisjointShortestPaths on the slot's full graph (plain
// Dijkstra, no contraction, no potential), and a flow network with one
// link per graph edge (two under separate up/down capacities: 2e for
// a->b, 2e+1 for b->a) and one flow per path, in pair order, then path
// order.
#pragma once

#include <vector>

#include "core/network_builder.hpp"
#include "core/routing.hpp"
#include "core/traffic_matrix.hpp"
#include "flow/flow_network.hpp"
#include "flow/maxmin.hpp"
#include "graph/disjoint_paths.hpp"

namespace leosim::core::oracle {

// The all-edges network, the pair each of its flows routes, and the
// mean one-way latency of its paths.
struct AllEdges {
  flow::FlowNetwork net;
  std::vector<int> pair_of_flow;
  double mean_path_latency_ms{0.0};
};

inline AllEdges BuildAllEdges(NetworkModel::Snapshot& snap,
                              const std::vector<CityPair>& pairs, int k,
                              bool directional) {
  AllEdges out;
  for (graph::EdgeId e = 0; e < snap.graph.NumEdges(); ++e) {
    out.net.AddLink(snap.graph.Edge(e).capacity);
    if (directional) {
      out.net.AddLink(snap.graph.Edge(e).capacity);
    }
  }
  double latency_sum = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const std::vector<graph::Path> paths = graph::KEdgeDisjointShortestPaths(
        snap.graph, snap.CityNode(pairs[i].a), snap.CityNode(pairs[i].b), k);
    for (const graph::Path& path : paths) {
      std::vector<flow::LinkId> links;
      for (size_t h = 0; h < path.edges.size(); ++h) {
        const graph::EdgeId e = path.edges[h];
        const bool forward = snap.graph.Edge(e).a == path.nodes[h];
        links.push_back(directional ? 2 * e + (forward ? 0 : 1) : e);
      }
      out.net.AddFlow(std::move(links));
      out.pair_of_flow.push_back(static_cast<int>(i));
      latency_sum += path.distance;
    }
  }
  if (!out.pair_of_flow.empty()) {
    out.mean_path_latency_ms = latency_sum / out.net.NumFlows();
  }
  return out;
}

// The greedy row of RunThroughputWithPolicy, computed the plain way:
// the all-edges network under the shared capacity model, its distinct
// pairs and flows counted, and MaxMinFairAllocate's total.
inline PolicyThroughputResult PlainGreedyThroughput(NetworkModel::Snapshot& snap,
                                                    const std::vector<CityPair>& pairs,
                                                    int k) {
  const AllEdges full = BuildAllEdges(snap, pairs, k, /*directional=*/false);
  PolicyThroughputResult result;
  result.mean_path_latency_ms = full.mean_path_latency_ms;
  ThroughputResult& t = result.throughput;
  t.subflows = full.net.NumFlows();
  std::vector<bool> routed(pairs.size(), false);
  for (const int pair : full.pair_of_flow) {
    routed[static_cast<size_t>(pair)] = true;
  }
  for (const bool r : routed) {
    t.pairs_routed += r ? 1 : 0;
  }
  if (t.pairs_routed > 0) {
    t.mean_paths_per_pair = static_cast<double>(t.subflows) / t.pairs_routed;
  }
  t.total_gbps = flow::MaxMinFairAllocate(full.net).total_gbps;
  return result;
}

}  // namespace leosim::core::oracle
