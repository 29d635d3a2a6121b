// The per-slot router, the one way a study routes city pairs: churn,
// path trace, attenuation, GSO network, failure, outage and multishell
// through RouteSlotPairs, latency through
// RouteSlotPairsHybridAndBentPipe (RouteSlotPairs on one slot's hybrid
// and ISL-masked views), throughput through RouteSlotDisjointPaths.
// They route the same shape of workload — city pairs grouped by source
// against one snapshot, masked or not — and answer it the same way
// (SlotPlan below):
//
//   0. the graph: the router routes on a relay contraction of the
//      snapshot graph (graph/relay_contraction.hpp): relays and aircraft,
//      96% of a paper-scale graph's nodes, become two-hop arcs between
//      satellites, and the 61.5k-node graph shrinks to its 2.6k
//      satellites and cities. RouteSlotPairs searches it as built;
//      RouteSlotPairsHybridAndBentPipe (latency) builds it once for
//      the hybrid graph and derives the ISL-masked bent-pipe one by
//      dropping the ISLs' direct arcs (an ISL joins two kept nodes, so
//      no detour arc changes); RouteSlotDisjointPaths (throughput)
//      searches a residual view of it between a pair's k searches,
//      which repairs only the detours each taken path bans;
//   1. component precheck: cross-component pairs stay unrouted without
//      any search (a failed search would otherwise settle the whole
//      component);
//   2. tier choice from the slot's reachable search count (reachable
//      pairs times searches per pair: 1 for RouteSlotPairs, k for the
//      k edge-disjoint paths of the throughput study):
//      - below kAltMinQueries: one multi-target Dijkstra tree per source
//        with at least kTreeBatchThreshold reachable destinations, and
//        goal-directed A* with the Euclidean latency bound for the rest;
//      - at or above it: one landmark table (graph/landmarks.hpp) built
//        on the routed graph, a tree per source with at least
//        kAltTreeThreshold destinations, and ALT A* for the rest.
//      The throughput study takes the potential but no trees: each of a
//      pair's k searches runs on a different residual graph, so every
//      one of them is A*.
//
// Every tier returns exactly plain Dijkstra's answer on the full graph,
// with one exactness step per path. Every search on the contraction is
// label-only (a tree, or graph::RunAStar), and contracted labels are
// the full graph's bit for bit. A tree's labels are Dijkstra's; A*'s
// RTT is dst's label when dst pops, final because both potentials are
// strictly admissible. A node chain or a disjoint path comes from the
// contraction's ExpandPath alone: it runs the A* tie guard on the
// contracted rows of the chain's nodes and reruns graph::ShortestPath on
// the full graph when an exact tie could make the chain differ. So
// RTTs, node chains and disjoint-path edge lists equal
// graph::ShortestPath's and the plain KEdgeDisjointShortestPaths' bit
// for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/network_builder.hpp"
#include "core/temporal_sweep.hpp"
#include "core/traffic_matrix.hpp"
#include "geo/vec3.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/landmarks.hpp"
#include "graph/relay_contraction.hpp"
#include "link/radio.hpp"

namespace leosim::core {

// A* potential safety factor (see graph/landmarks.hpp for the rounding
// argument): the straight-line propagation latency to the destination
// is an exact lower bound in real arithmetic; one part in 1e12 of slack
// keeps it admissible under floating-point rounding.
inline constexpr double kPotentialSlack = graph::kPotentialSlack;

// The tier constants below were measured per slot-mode (four slots,
// hybrid and ISL-masked bent-pipe) on relay contractions of the default
// graph (332 cities, 2.5 deg grid, 500 pairs) and the paper-scale one
// (1,000 cities, 0.5 deg grid, 1,000 and 5,000 pairs), and for
// kAltMinQueries also on the full graphs the throughput study routes.

// Without a landmark table, a source's destinations are batched into one
// multi-target Dijkstra once there are at least this many of them; below
// the threshold, per-pair Euclidean A* wins because its settled corridor
// is smaller than the Dijkstra ball the batched search grows. Measured
// crossover on both contracted graphs: 2 targets under bent-pipe, 3
// under hybrid connectivity.
inline constexpr size_t kTreeBatchThreshold = 3;

// Reachable queries per slot from which building a landmark table pays
// for itself. The table costs 16 full Dijkstras; each ALT query then
// saves the difference to the Euclidean tiers. A query is one A*
// search: a pair counts once under RouteSlotPairs and k times in the
// throughput study's k disjoint paths. Measured
// break-even: 130-200 queries on hybrid graphs and 50-75 on bent-pipe
// ones on the full (3.7k- and 62k-node) graphs; 160-250 on hybrid and
// 70-130 on bent-pipe contractions, where the table and the queries are
// both about ten times cheaper.
// The constant follows the hybrid median: a hybrid slot near it gains or
// loses little, and bent-pipe slots below it forgo a gain rather than
// risk a loss (DESIGN.md §7).
inline constexpr size_t kAltMinQueries = 160;

// With a landmark table, a source's destinations share one tree only
// from this many on: an ALT query settles a far narrower corridor than
// the Euclidean one, so the tree's Dijkstra ball must amortise over
// more targets. Measured crossover on the contractions: 6-8 targets on
// both graphs, hybrid and bent-pipe alike.
inline constexpr size_t kAltTreeThreshold = 6;

// The Euclidean A* potential: straight-line propagation latency from
// node n to the destination position, slacked for admissibility under
// rounding. Called through a capturing lambda so it inlines into the
// A* relax loop.
inline double EuclideanLatencyPotential(const std::vector<geo::Vec3>& node_ecef,
                                        graph::NodeId n,
                                        const geo::Vec3& dst_pos) {
  return kPotentialSlack *
         link::PropagationLatencyMs(node_ecef[static_cast<size_t>(n)], dst_pos);
}

// One slot's routing plan: the component precheck, the landmark-table
// decision and the A* potential, for every study that routes pairs over
// one snapshot. The plan routes over `g`, a RelayContraction of
// snap.graph (which keeps every satellite and city under its snapshot
// id). Construction labels g's components into ws->labels and, when the
// slot's reachable search count clears kAltMinQueries, rebuilds
// ws->landmarks on g. The plan borrows `snap` and `ws` and is valid
// until either changes; callers may ban edges in between (the
// throughput study's residual searches), which only lengthens distances
// and so keeps both potentials admissible.
class SlotPlan {
 public:
  SlotPlan(const graph::RelayContraction& g, const NetworkModel::Snapshot& snap,
           const std::vector<CityPair>& pairs, size_t searches_per_pair,
           SweepWorkspace* ws);

  // RouteSlotPairs: a source's reachable destinations share one
  // Dijkstra tree from this many on; fewer are answered by A* one by one.
  size_t tree_threshold() const {
    return alt_ ? kAltTreeThreshold : kTreeBatchThreshold;
  }

  // Fills ws->targets and ws->target_pairs with the destinations of
  // `group` that share the source's component, and the pair indices
  // they came from. Returns the source node.
  graph::NodeId CollectTargets(const SourceGroup& group,
                               const std::vector<CityPair>& pairs);

  // Calls fn(potential) with the slot's A* potential toward `dst` — the
  // landmark bound when the table is built, else the Euclidean latency
  // bound — and returns what fn returns. The potentials are plain
  // lambdas so they inline into the A* relax loop; `fn` should be a
  // generic lambda.
  template <typename Fn>
  decltype(auto) WithPotential(graph::NodeId dst, const Fn& fn) {
    if (alt_) {
      ws_->landmarks.SetDestination(dst);
      const graph::LandmarkTable& table = ws_->landmarks;
      return fn([&table](graph::NodeId v) { return table.Potential(v); });
    }
    const geo::Vec3 dst_pos = snap_.node_ecef[static_cast<size_t>(dst)];
    const std::vector<geo::Vec3>& node_ecef = snap_.node_ecef;
    return fn([&node_ecef, &dst_pos](graph::NodeId v) {
      return EuclideanLatencyPotential(node_ecef, v, dst_pos);
    });
  }

 private:
  const NetworkModel::Snapshot& snap_;
  SweepWorkspace* ws_;
  bool alt_{false};
};

// One slot's routing answers for every pair: RTT (+inf when unreachable)
// and, when paths were requested, each pair's full-graph node chain in
// path order (src ... dst; empty when unreachable), as [begin, end) runs
// into one shared buffer.
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
// mask edges first — into `out`, one search per pair under a SlotPlan on
// the relay contraction of that graph. Path runs are filled only when
// `want_paths`: they are graph::ShortestPath's node chains, relays and
// aircraft included. Uses `ws`'s routing scratch, contraction and landmark table;
// touches nothing else, so concurrent calls with distinct workspaces and
// outputs never conflict.
void RouteSlotPairs(const NetworkModel::Snapshot& snap,
                    const std::vector<CityPair>& pairs,
                    const std::vector<SourceGroup>& groups, bool want_paths,
                    SweepWorkspace* ws, SlotRoutes* out);

// RouteSlotPairs (without paths) twice on one slot: on `snap`'s graph
// as it stands into `hybrid_out`, then with exactly snap.isl_edges
// disabled (the bent-pipe view) into `bp_out`, and re-enables them. The
// bent-pipe contraction is derived from the hybrid one by
// RelayContraction::DropDisabledDirectArcs, which equals a fresh Build
// because an ISL joins two kept satellites; the answers equal two
// RouteSlotPairs calls bit for bit. Uses `ws` and `snap` like
// RouteSlotPairs.
void RouteSlotPairsHybridAndBentPipe(NetworkModel::Snapshot& snap,
                                     const std::vector<CityPair>& pairs,
                                     const std::vector<SourceGroup>& groups,
                                     SweepWorkspace* ws, SlotRoutes* hybrid_out,
                                     SlotRoutes* bp_out);

// Routes every pair of `pairs` over `snap`'s graph as it stands into
// (*paths)[pair]: its up to k edge-disjoint shortest paths, equal edge
// for edge to graph::KEdgeDisjointShortestPaths(snap.graph, src, dst, k),
// empty when the pair is unreachable. One SlotPlan on the relay
// contraction, counting k searches per pair; every search, first and
// residual, is A* on ws->residual, expanded by its ExpandPath (see the
// contracted KEdgeDisjointShortestPaths in graph/disjoint_paths.hpp). Edges are
// disabled on snap.graph while a pair is routed and restored after it.
// Uses only `ws` and `snap`, like RouteSlotPairs.
void RouteSlotDisjointPaths(NetworkModel::Snapshot& snap,
                            const std::vector<CityPair>& pairs,
                            const std::vector<SourceGroup>& groups, int k,
                            SweepWorkspace* ws,
                            std::vector<std::vector<graph::Path>>* paths);

}  // namespace leosim::core
