// Network-wide throughput (paper §5, Figs. 4-5) and the BP satellite
// disconnection statistic.
//
// Traffic between each city pair is split over the k edge-disjoint
// shortest paths; the sub-flows are allocated max-min fair rates over the
// per-link capacities (20 Gbps GT-satellite, 100 Gbps ISL by default), and
// the aggregate throughput is reported.
#pragma once

#include <vector>

#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/temporal_sweep.hpp"
#include "core/traffic_matrix.hpp"
#include "flow/flow_network.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace leosim::core {

struct ThroughputResult {
  double total_gbps{0.0};
  int pairs_routed{0};     // pairs with at least one path
  int subflows{0};         // total flows handed to the allocator
  double mean_paths_per_pair{0.0};
};

// Capacity model for the allocator:
//   kSharedPerLink      — each (undirected) link is one pooled resource of
//                         its capacity; opposite-direction flows contend.
//                         This is the model used for all Fig. 4/5 numbers.
//   kSeparateUpDown     — each link carries its capacity independently in
//                         each direction (paper §5: "up- and down-link
//                         capacities of 20 Gbps"), so opposing flows do
//                         not contend. Ablated in bench/ablation_updown.
enum class CapacityModel { kSharedPerLink, kSeparateUpDown };

// A snapshot's city pairs as flows, one per path, for flow/maxmin.hpp
// or flow/temporal.hpp.
struct RoutedFlows {
  flow::FlowNetwork net;
  std::vector<int> pair_of_flow;  // index into the routed pairs
};

// The flows of `paths_of` (pair i's paths in paths_of[i]) over `g`, in
// pair order, then path order. The network holds only the links some
// path crosses, each with its edge's capacity: one per edge, or one per
// direction under kSeparateUpDown, numbered in increasing (edge,
// direction) order as a link-per-edge network would number them.
// Allocations and temporal outcomes therefore equal that network's bit
// for bit (DESIGN.md §3).
RoutedFlows FlowsFromPaths(const graph::Graph& g,
                           const std::vector<std::vector<graph::Path>>& paths_of,
                           CapacityModel capacity_model);

// Builds the slot at `time_sec` into ws->snapshot and routes each pair to
// its up to k edge-disjoint shortest paths, (*paths)[pair], empty when
// unreachable (RouteSlotDisjointPaths, span study.throughput). Returns the
// snapshot, whose edge ids the paths index, as do those of models that
// differ only in link capacities; a pair's first j paths are its k = j
// paths. Throws std::invalid_argument when k < 1.
const NetworkModel::Snapshot& RouteThroughputPaths(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    double time_sec, SweepWorkspace* ws,
    std::vector<std::vector<graph::Path>>* paths);

// Pairs routed, sub-flows and the max-min-fair total (span flow.maxmin)
// of routed flows in which one pair's flows are consecutive.
ThroughputResult ThroughputOf(const RoutedFlows& routed);

// Throws std::invalid_argument unless k >= 1. Every throughput entry
// point checks its disjoint-path count with it: k = 0 would report each
// reachable pair as routed with no sub-flows and 0 Gbps.
void CheckPathCount(int k);

// Aggregate max-min-fair throughput at one snapshot: RouteThroughputPaths,
// then one kSharedPerLink allocation. Throws std::invalid_argument when k < 1.
ThroughputResult RunThroughputStudy(const NetworkModel& model,
                                    const std::vector<CityPair>& pairs, int k,
                                    double time_sec);

// Aggregate throughput at every snapshot of the schedule, one result per
// slot, each identical to RunThroughputStudy at that time. Slots run as a
// parallel temporal sweep (core/temporal_sweep.hpp); the samples and pair
// counts are recorded in a serial pass, independent of the thread count.
// Throws std::invalid_argument when k < 1.
std::vector<ThroughputResult> RunThroughputSweep(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    const SnapshotSchedule& schedule);

struct DisconnectionStats {
  double min_fraction{0.0};   // across snapshots
  double max_fraction{0.0};
  std::vector<double> per_snapshot;
};

// Fraction of satellites disconnected from every ground node (paper §5:
// 25.1%-31.5% for BP Starlink across a day).
DisconnectionStats RunDisconnectionStudy(const NetworkModel& model,
                                         const SnapshotSchedule& schedule);

}  // namespace leosim::core
