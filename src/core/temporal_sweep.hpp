// Snapshot-parallel sweep driver for the temporal studies. The paper's
// headline figures are the same per-snapshot pipeline evaluated at many
// time slots; slots are independent, so the sweep fans them out across
// ParallelForWorkers with one workspace bundle per dense worker id.
//
// Determinism contract (regression-tested in temporal_sweep_test): a
// sweep-driven study produces byte-identical outputs at any thread
// count. The driver's side of the bargain is per-worker workspaces and
// one item per slot; the study's side is writing
// only to preallocated slot-indexed arrays from the body and doing every
// order-sensitive reduction — timeseries emission, pair-reachability
// counts, churn's consecutive-slot diffs — in a serial pass over
// those arrays afterwards. Churn diffs in particular stay serial by
// design: they chain slot i to slot i-1, and replaying them over the
// per-slot route tables costs microseconds while keeping the float
// accumulation order identical to the historical snapshot-major loop.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "graph/dijkstra.hpp"
#include "graph/landmarks.hpp"
#include "graph/relay_contraction.hpp"
#include "graph/sssp_tree.hpp"

namespace leosim::core {

// Per-worker scratch bundle, owned by TemporalSweep::Run and handed to
// the body by dense worker id. Reused across every item the worker
// claims, so a steady-state sweep allocates nothing per slot. The
// snapshot workspace is model-agnostic (each build refills it), so one
// bundle serves bodies that alternate between models (e.g. the
// multishell study's single- and dual-shell builds).
struct SweepWorkspace {
  NetworkModel::SnapshotWorkspace snapshot;
  graph::DijkstraWorkspace dijkstra;
  graph::ShortestPathTree tree;
  // ALT landmark table for the per-slot router (core/slot_router.hpp),
  // rebuilt for every slot and mode that routes enough pairs to pay for
  // it; empty in bodies that never do.
  graph::LandmarkTable landmarks;
  // The per-slot router's relay contraction of the snapshot graph,
  // rebuilt for every slot and mode it routes, and the throughput
  // study's residual view of it.
  graph::RelayContraction contraction;
  graph::ResidualContraction residual;
  // Generic study scratch: component labels + DFS stack for the
  // reachability precheck, a NodeId buffer for batched targets, and the
  // pair indices those targets came from.
  std::vector<int> labels;
  std::vector<graph::NodeId> stack;
  std::vector<graph::NodeId> targets;
  std::vector<int> target_pairs;
};

// One scheduled unit of work: time slot `slot` (index into the times).
struct SweepItem {
  int slot{0};
  double time_sec{0.0};
};

class TemporalSweep {
 public:
  explicit TemporalSweep(std::vector<double> times) : times_(std::move(times)) {}

  // Invokes body(item, workspace) once per slot across the worker count
  // LEOSIM_THREADS resolves to (see parallel.hpp for resolution and
  // exception semantics), reporting one progress step per slot under
  // `progress_label`. The body must confine its writes to slot-indexed
  // state; it runs concurrently for distinct slots.
  void Run(const std::string& progress_label,
           const std::function<void(const SweepItem&, SweepWorkspace&)>& body) const;

 private:
  std::vector<double> times_;
};

// Pairs grouped by source city (pair.a — SampleCityPairs canonicalises
// a < b, and the studies never flip the orientation because reversing a
// path re-sums its edge weights in the opposite order, which is not
// bit-identical in floating point). Group order follows first
// appearance in `pairs`, so grouping is deterministic.
struct SourceGroup {
  int src_city{0};
  std::vector<int> pair_indices;  // indices into the original pair vector
};

std::vector<SourceGroup> GroupPairsBySource(const std::vector<CityPair>& pairs);

// True when `bp_model`'s snapshots are exactly `hybrid_model`'s with the
// ISL edges removed — same scenario, shells, cities, and options apart
// from the connectivity mode. The graph builder appends ISL edges after
// every radio edge, so disabling a hybrid snapshot's isl_edges (weight
// becomes +inf; relax loops skip them arithmetically) yields a graph
// whose searches are bit-identical to a dedicated bent-pipe build —
// letting the latency study build each time slot once instead of twice.
// On false, `mismatch` (when given) names the first difference found.
bool CanDeriveBentPipeByMasking(const NetworkModel& bp_model,
                                const NetworkModel& hybrid_model,
                                std::string* mismatch = nullptr);

}  // namespace leosim::core
