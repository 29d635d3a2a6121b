// The per-slot router shared by the pair-routing studies (latency,
// churn). Both route the same shape of workload — many city pairs
// grouped by source against one snapshot — and answer it the same way:
//
//   1. component precheck: cross-component pairs stay +inf without any
//      search (a failed search would otherwise settle the whole
//      component);
//   2. tier choice from the slot's reachable query count:
//      - below kAltMinQueries: one multi-target Dijkstra tree per source
//        with at least kTreeBatchThreshold reachable destinations, and
//        goal-directed A* with the Euclidean latency bound for the rest;
//      - at or above it: one landmark table (graph/landmarks.hpp) built
//        on this very graph, a tree per source with at least
//        kAltTreeThreshold destinations, and ALT A* for the rest.
//
// Every tier reports the plain-Dijkstra distance bit for bit (trees are
// Dijkstra; both A* potentials are admissible and the A* keeps no closed
// set). Node chains agree whenever the shortest path is unique.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/network_builder.hpp"
#include "core/temporal_sweep.hpp"
#include "core/traffic_matrix.hpp"
#include "geo/vec3.hpp"
#include "graph/graph.hpp"
#include "graph/landmarks.hpp"
#include "link/radio.hpp"

namespace leosim::core {

// A* potential safety factor (see graph/landmarks.hpp for the rounding
// argument): the straight-line propagation latency to the destination
// is an exact lower bound in real arithmetic; one part in 1e12 of slack
// keeps it admissible under floating-point rounding.
inline constexpr double kPotentialSlack = graph::kPotentialSlack;

// Without a landmark table, a source's destinations are batched into one
// multi-target Dijkstra once there are at least this many of them; below
// the threshold, per-pair Euclidean A* wins because its settled corridor
// is roughly half the size of the Dijkstra ball the batched search grows.
inline constexpr size_t kTreeBatchThreshold = 3;

// Reachable queries per slot from which building a landmark table pays
// for itself. The table costs 16 full Dijkstras; each ALT query then
// saves the difference to the Euclidean tiers. Measured break-even, four
// slots each on the default (3.7k-node) and paper-scale (62k-node)
// graphs: 130-200 queries on hybrid graphs, 50-75 on bent-pipe ones.
// The constant follows the hybrid median: a hybrid slot near it gains or
// loses little, and bent-pipe slots of 75-160 queries forgo a gain
// rather than risk a loss (DESIGN.md §7).
inline constexpr size_t kAltMinQueries = 160;

// With a landmark table, a source's destinations share one tree only
// from this many on: an ALT query settles a far narrower corridor than
// the Euclidean one, so the tree's Dijkstra ball must amortise over
// many more targets. Measured crossover: 10-12 targets on the default
// graph, 12-16 on the paper-scale one.
inline constexpr size_t kAltTreeThreshold = 16;

// The Euclidean A* potential: straight-line propagation latency from
// node n to the destination position, slacked for admissibility under
// rounding. Called through a capturing lambda so it inlines into the
// ShortestPathAStar relax loop.
inline double EuclideanLatencyPotential(const std::vector<geo::Vec3>& node_ecef,
                                        graph::NodeId n,
                                        const geo::Vec3& dst_pos) {
  return kPotentialSlack *
         link::PropagationLatencyMs(node_ecef[static_cast<size_t>(n)], dst_pos);
}

// One slot's routing answers for every pair: RTT (+inf when unreachable)
// and, when paths were requested, each pair's path nodes sorted, as
// [begin, end) runs into one shared buffer.
struct SlotRoutes {
  std::vector<double> rtt;
  std::vector<uint32_t> begin;
  std::vector<uint32_t> end;
  std::vector<graph::NodeId> nodes;

  std::span<const graph::NodeId> PathNodes(size_t pair) const {
    return {nodes.data() + begin[pair], nodes.data() + end[pair]};
  }
};

// Routes every pair of `pairs` (grouped by `groups`, see
// GroupPairsBySource) over `snap`'s graph as it stands — callers may
// mask edges first — into `out`. Path runs are filled only when
// `want_paths`. Uses `ws`'s routing scratch and landmark table; touches
// nothing else, so concurrent calls with distinct workspaces and
// outputs never conflict.
void RouteSlotPairs(const NetworkModel::Snapshot& snap,
                    const std::vector<CityPair>& pairs,
                    const std::vector<SourceGroup>& groups, bool want_paths,
                    SweepWorkspace* ws, SlotRoutes* out);

}  // namespace leosim::core
