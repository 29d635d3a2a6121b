#include "core/throughput_study.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "flow/maxmin.hpp"
#include "graph/components.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

// Aggregate max-min-fair throughput over one built snapshot. Every
// pair's k edge-disjoint paths come from the per-slot router
// (RouteSlotDisjointPaths in core/slot_router.hpp), on the slot's relay
// contraction, and equal KEdgeDisjointShortestPaths' plain from-scratch
// answer edge for edge. Flows are handed to the allocator in the
// original pair order, so the allocation matches the historical
// per-pair loop.
ThroughputResult ThroughputAtSnapshot(NetworkModel::Snapshot& snap,
                                      const std::vector<CityPair>& pairs,
                                      const std::vector<SourceGroup>& groups,
                                      int k, bool directional,
                                      SweepWorkspace* ws) {
  // Shared model: one flow-network link per graph edge, same ids.
  // Separate up/down: two links per edge — 2e for the a->b direction,
  // 2e+1 for b->a — each with the full link capacity.
  flow::FlowNetwork net;
  for (graph::EdgeId e = 0; e < snap.graph.NumEdges(); ++e) {
    net.AddLink(snap.graph.Edge(e).capacity);
    if (directional) {
      net.AddLink(snap.graph.Edge(e).capacity);
    }
  }

  // Unreachable pairs keep an empty path set.
  std::vector<std::vector<graph::Path>> paths_of;
  RouteSlotDisjointPaths(snap, pairs, groups, k, ws, &paths_of);

  ThroughputResult result;
  for (const std::vector<graph::Path>& paths : paths_of) {
    if (paths.empty()) {
      continue;  // unreachable: no paths, pair not routed
    }
    ++result.pairs_routed;
    for (const graph::Path& path : paths) {
      std::vector<flow::LinkId> links;
      links.reserve(path.edges.size());
      for (size_t h = 0; h < path.edges.size(); ++h) {
        const graph::EdgeId e = path.edges[h];
        if (!directional) {
          links.push_back(e);
        } else {
          const bool forward = snap.graph.Edge(e).a == path.nodes[h];
          links.push_back(2 * e + (forward ? 0 : 1));
        }
      }
      net.AddFlow(std::move(links));
      ++result.subflows;
    }
  }
  if (result.pairs_routed > 0) {
    result.mean_paths_per_pair =
        static_cast<double>(result.subflows) / result.pairs_routed;
  }

  const obs::Span span("flow.maxmin");
  const flow::Allocation alloc = flow::MaxMinFairAllocate(net);
  result.total_gbps = alloc.total_gbps;
  return result;
}

}  // namespace

void CheckPathCount(int k) {
  if (k < 1) {
    throw std::invalid_argument("throughput study: k must be >= 1 (got " +
                                std::to_string(k) + ")");
  }
}

ThroughputResult RunThroughputStudy(const NetworkModel& model,
                                    const std::vector<CityPair>& pairs, int k,
                                    double time_sec, CapacityModel capacity_model) {
  CheckPathCount(k);
  const StudyTimer timer;
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, &ws.snapshot);
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  const ThroughputResult result = ThroughputAtSnapshot(
      snap, pairs, groups, k,
      capacity_model == CapacityModel::kSeparateUpDown, &ws);

  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  recorder.Record(time_sec, "throughput.total_gbps", result.total_gbps);
  recorder.Record(time_sec, "throughput.pairs_routed",
                  static_cast<double>(result.pairs_routed));
  recorder.Record(time_sec, "throughput.subflows",
                  static_cast<double>(result.subflows));
  StudySummary summary;
  summary.study = "throughput";
  summary.snapshots_built = 1;
  summary.pairs_routed = static_cast<uint64_t>(result.pairs_routed);
  summary.pairs_unreachable =
      pairs.size() - static_cast<uint64_t>(result.pairs_routed);
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

std::vector<ThroughputResult> RunThroughputSweep(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    const SnapshotSchedule& schedule, CapacityModel capacity_model) {
  CheckPathCount(k);
  const StudyTimer timer;
  const std::vector<double> times = schedule.Times();
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  const bool directional = capacity_model == CapacityModel::kSeparateUpDown;
  std::vector<ThroughputResult> results(times.size());
  const TemporalSweep sweep(times);
  sweep.Run("throughput_sweep", [&](const SweepItem& item, SweepWorkspace& ws) {
    NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    results[static_cast<size_t>(item.slot)] =
        ThroughputAtSnapshot(snap, pairs, groups, k, directional, &ws);
  });

  // Serial emission pass: the same samples N RunThroughputStudy calls
  // would have recorded, independent of worker scheduling.
  StudySummary summary;
  summary.study = "throughput_sweep";
  summary.snapshots_built = static_cast<uint64_t>(times.size());
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  for (size_t s = 0; s < times.size(); ++s) {
    const ThroughputResult& r = results[s];
    recorder.Record(times[s], "throughput.total_gbps", r.total_gbps);
    recorder.Record(times[s], "throughput.pairs_routed",
                    static_cast<double>(r.pairs_routed));
    recorder.Record(times[s], "throughput.subflows",
                    static_cast<double>(r.subflows));
    summary.pairs_routed += static_cast<uint64_t>(r.pairs_routed);
    summary.pairs_unreachable +=
        pairs.size() - static_cast<uint64_t>(r.pairs_routed);
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return results;
}

DisconnectionStats RunDisconnectionStudy(const NetworkModel& model,
                                         const SnapshotSchedule& schedule) {
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "disconnection";
  const std::vector<double> times = schedule.Times();
  std::vector<double> fractions(times.size(), 0.0);
  const TemporalSweep sweep(times);
  sweep.Run("disconnection", [&](const SweepItem& item, SweepWorkspace& ws) {
    const NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    std::vector<graph::NodeId> sats(static_cast<size_t>(snap.num_sats));
    for (int i = 0; i < snap.num_sats; ++i) {
      sats[static_cast<size_t>(i)] = snap.SatNode(i);
    }
    std::vector<graph::NodeId> ground;
    ground.reserve(static_cast<size_t>(snap.NumNodes() - snap.num_sats));
    for (int n = snap.num_sats; n < snap.NumNodes(); ++n) {
      ground.push_back(n);
    }
    const int disconnected = graph::CountDisconnected(snap.graph, sats, ground);
    fractions[static_cast<size_t>(item.slot)] =
        static_cast<double>(disconnected) / snap.num_sats;
  });
  summary.snapshots_built = static_cast<uint64_t>(times.size());

  DisconnectionStats stats;
  stats.min_fraction = 1.0;
  stats.max_fraction = 0.0;
  stats.per_snapshot = fractions;
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  for (size_t s = 0; s < times.size(); ++s) {
    stats.min_fraction = std::min(stats.min_fraction, fractions[s]);
    stats.max_fraction = std::max(stats.max_fraction, fractions[s]);
    recorder.Record(times[s], "disconnection.fraction", fractions[s]);
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return stats;
}

}  // namespace leosim::core
