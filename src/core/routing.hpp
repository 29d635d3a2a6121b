// Routing policies beyond the paper's greedy edge-disjoint shortest paths.
//
// Paper §5: "A routing scheme that minimizes the maximum utilization, for
// example, can offer higher throughput, albeit at the cost of increased
// latency" — left to future work there, implemented here:
//
//   kDisjointGreedy     — the paper's scheme (disjoint_paths.hpp), routed
//                         on the per-slot router (core/slot_router.hpp).
//   kDisjointOptimalPair— Suurballe/Bhandari min-total-cost pair (k<=2).
//   kMinMaxUtilisation  — picks k edge-disjoint paths from a Yen candidate
//                         set, greedily minimising the worst link
//                         utilisation given the load already routed.
//   kCongestionAware    — greedy disjoint paths over congestion-penalised
//                         weights (latency x (1 + alpha * utilisation)),
//                         a cheap load-balancing middle ground.
#pragma once

#include <string_view>
#include <vector>

#include "core/network_builder.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "graph/dijkstra.hpp"

namespace leosim::core {

enum class RoutingPolicy {
  kDisjointGreedy,
  kDisjointOptimalPair,
  kMinMaxUtilisation,
  kCongestionAware,
};

std::string_view ToString(RoutingPolicy policy);

struct RoutingState {
  // Estimated sub-flow count per edge, updated as pairs are routed in
  // sequence (each sub-flow contributes one unit).
  std::vector<double> edge_load;
};

// Routes one pair under one of the three full-graph policies; returns up
// to k paths (the optimal-pair policy returns at most 2). `state`
// carries load across pairs for the load-aware policies and is updated
// with the chosen paths. Throws std::invalid_argument for
// kDisjointGreedy, which RunThroughputWithPolicy routes on the per-slot
// router.
std::vector<graph::Path> RoutePair(graph::Graph& g, graph::NodeId src,
                                   graph::NodeId dst, int k, RoutingPolicy policy,
                                   RoutingState& state);

struct PolicyThroughputResult {
  ThroughputResult throughput;
  double mean_path_latency_ms{0.0};  // mean one-way latency of chosen paths
};

// Full throughput experiment under a policy: route all pairs, then
// max-min-fair allocate (ThroughputOf), like RunThroughputStudy.
// kDisjointGreedy takes each pair's paths from RouteSlotDisjointPaths,
// so it equals RunThroughputStudy bit for bit; the other policies route
// the pairs in sequence on the full snapshot graph with RoutePair, since
// their k-shortest, optimal-pair and penalised searches have no exact
// form on the relay contraction (DESIGN.md §7). Throws
// std::invalid_argument when k < 1.
PolicyThroughputResult RunThroughputWithPolicy(const NetworkModel& model,
                                               const std::vector<CityPair>& pairs,
                                               int k, double time_sec,
                                               RoutingPolicy policy);

}  // namespace leosim::core
