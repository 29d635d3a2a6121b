#include "core/throughput_study.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "flow/maxmin.hpp"
#include "graph/components.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

// Both entry points' recording pass: per-slot timeseries samples in slot
// order, then the pair reachability counts.
void RecordThroughput(const std::vector<double>& times,
                      const std::vector<ThroughputResult>& results,
                      size_t num_pairs) {
  uint64_t routed = 0;
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  for (size_t s = 0; s < times.size(); ++s) {
    const ThroughputResult& r = results[s];
    recorder.Record(times[s], "throughput.total_gbps", r.total_gbps);
    recorder.Record(times[s], "throughput.pairs_routed",
                    static_cast<double>(r.pairs_routed));
    recorder.Record(times[s], "throughput.subflows",
                    static_cast<double>(r.subflows));
    routed += static_cast<uint64_t>(r.pairs_routed);
  }
  CountStudyPairs(routed, times.size() * num_pairs - routed);
}

}  // namespace

RoutedFlows FlowsFromPaths(const graph::Graph& g,
                           const std::vector<std::vector<graph::Path>>& paths_of,
                           CapacityModel capacity_model) {
  // A hop's link in a network with a link per edge and direction: e
  // under the shared model; 2e (a->b) or 2e+1 (b->a) under up/down.
  const int per_edge = capacity_model == CapacityModel::kSeparateUpDown ? 2 : 1;
  const auto full_link = [&](const graph::Path& path, size_t h) {
    const graph::EdgeId e = path.edges[h];
    const bool reverse = per_edge == 2 && g.Edge(e).a != path.nodes[h];
    return static_cast<size_t>(per_edge * e + (reverse ? 1 : 0));
  };

  // Mark the crossed links with 0, then number them in id order.
  std::vector<flow::LinkId> link_of(static_cast<size_t>(g.NumEdges() * per_edge),
                                    -1);
  size_t num_flows = 0;
  for (const std::vector<graph::Path>& paths : paths_of) {
    num_flows += paths.size();
    for (const graph::Path& path : paths) {
      for (size_t h = 0; h < path.edges.size(); ++h) {
        link_of[full_link(path, h)] = 0;
      }
    }
  }
  RoutedFlows routed;
  for (size_t l = 0; l < link_of.size(); ++l) {
    if (link_of[l] == 0) {
      const graph::EdgeId e = static_cast<graph::EdgeId>(l) / per_edge;
      link_of[l] = routed.net.AddLink(g.Edge(e).capacity);
    }
  }
  routed.pair_of_flow.reserve(num_flows);
  for (size_t i = 0; i < paths_of.size(); ++i) {
    for (const graph::Path& path : paths_of[i]) {
      std::vector<flow::LinkId> links(path.edges.size());
      for (size_t h = 0; h < path.edges.size(); ++h) {
        links[h] = link_of[full_link(path, h)];
      }
      routed.net.AddFlow(std::move(links));
      routed.pair_of_flow.push_back(static_cast<int>(i));
    }
  }
  return routed;
}

const NetworkModel::Snapshot& RouteThroughputPaths(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    double time_sec, SweepWorkspace* ws,
    std::vector<std::vector<graph::Path>>* paths) {
  const obs::Span span("study.throughput");
  CheckPathCount(k);
  NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, &ws->snapshot);
  RouteSlotDisjointPaths(snap, pairs, GroupPairsBySource(pairs), k, ws, paths);
  return snap;
}

ThroughputResult ThroughputOf(const RoutedFlows& routed) {
  const std::vector<int>& pair_of = routed.pair_of_flow;
  ThroughputResult result;
  result.subflows = routed.net.NumFlows();
  for (size_t f = 0; f < pair_of.size(); ++f) {
    result.pairs_routed += f == 0 || pair_of[f] != pair_of[f - 1] ? 1 : 0;
  }
  if (result.pairs_routed > 0) {
    result.mean_paths_per_pair =
        static_cast<double>(result.subflows) / result.pairs_routed;
  }

  const obs::Span span("flow.maxmin");
  result.total_gbps = flow::MaxMinFairAllocate(routed.net).total_gbps;
  return result;
}

void CheckPathCount(int k) {
  if (k < 1) {
    throw std::invalid_argument("throughput study: k must be >= 1 (got " +
                                std::to_string(k) + ")");
  }
}

ThroughputResult RunThroughputStudy(const NetworkModel& model,
                                    const std::vector<CityPair>& pairs, int k,
                                    double time_sec) {
  SweepWorkspace ws;
  std::vector<std::vector<graph::Path>> paths_of;
  const NetworkModel::Snapshot& snap =
      RouteThroughputPaths(model, pairs, k, time_sec, &ws, &paths_of);
  const ThroughputResult result = ThroughputOf(
      FlowsFromPaths(snap.graph, paths_of, CapacityModel::kSharedPerLink));
  RecordThroughput({time_sec}, {result}, pairs.size());
  return result;
}

std::vector<ThroughputResult> RunThroughputSweep(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    const SnapshotSchedule& schedule) {
  const obs::Span span("study.throughput_sweep");
  CheckPathCount(k);
  const std::vector<double> times = schedule.Times();
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  std::vector<ThroughputResult> results(times.size());
  const TemporalSweep sweep(times);
  sweep.Run("throughput_sweep", [&](const SweepItem& item, SweepWorkspace& ws) {
    NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    std::vector<std::vector<graph::Path>> paths_of;
    RouteSlotDisjointPaths(snap, pairs, groups, k, &ws, &paths_of);
    results[static_cast<size_t>(item.slot)] = ThroughputOf(
        FlowsFromPaths(snap.graph, paths_of, CapacityModel::kSharedPerLink));
  });

  // Serial, so the samples do not depend on worker scheduling.
  RecordThroughput(times, results, pairs.size());
  return results;
}

DisconnectionStats RunDisconnectionStudy(const NetworkModel& model,
                                         const SnapshotSchedule& schedule) {
  const obs::Span span("study.disconnection");
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
  return stats;
}

}  // namespace leosim::core
