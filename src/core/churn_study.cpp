#include "core/churn_study.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "core/net_trace.hpp"
#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Jaccard similarity over two sorted node-id runs. Shortest paths never
// repeat a node, so a sorted run is exactly the node set the historical
// std::set-based code compared; the two-pointer intersection gives the
// same count without building sets.
double JaccardSorted(std::span<const graph::NodeId> a,
                     std::span<const graph::NodeId> b) {
  if (a.empty() && b.empty()) {
    return 1.0;
  }
  size_t ia = 0;
  size_t ib = 0;
  int intersection = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      ++intersection;
      ++ia;
      ++ib;
    }
  }
  const int union_size = static_cast<int>(a.size() + b.size()) - intersection;
  return union_size == 0 ? 1.0 : static_cast<double>(intersection) / union_size;
}

// Routes every slot of the schedule in parallel into per-slot tables
// whose path runs hold each path's node set, sorted. `label` names the
// progress stream ("churn" / "churn_aggregate").
std::vector<SlotRoutes> SweepRoutes(const NetworkModel& model,
                                    const std::vector<CityPair>& pairs,
                                    const std::vector<double>& times,
                                    const std::string& label) {
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  std::vector<SlotRoutes> slots(times.size());
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  if (net_trace.Enabled()) {
    net_trace.SetTimeline(times);
  }
  const TemporalSweep sweep(times);
  sweep.Run(label, [&](const SweepItem& item, SweepWorkspace& ws) {
    const NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    if (net_trace.Enabled()) {
      net_trace.CaptureSlot(item.slot, item.time_sec, snap);
    }
    SlotRoutes& routes = slots[static_cast<size_t>(item.slot)];
    RouteSlotPairs(snap, pairs, groups, /*want_paths=*/true, &ws, &routes);
    // The serial diff pass below compares path node sets, so each node
    // chain becomes its sorted node run here, on the worker.
    for (size_t i = 0; i < pairs.size(); ++i) {
      std::sort(routes.nodes.begin() + routes.begin[i],
                routes.nodes.begin() + routes.end[i]);
    }
  });
  return slots;
}

}  // namespace

ChurnStats RunChurnStudy(const NetworkModel& model, const std::string& city_a,
                         const std::string& city_b,
                         const SnapshotSchedule& schedule) {
  const obs::Span span("study.churn");
  const std::vector<double> times = schedule.Times();
  const std::vector<CityPair> pairs = {
      {model.CityIndex(city_a), model.CityIndex(city_b)}};
  const std::vector<SlotRoutes> slots = SweepRoutes(model, pairs, times, "churn");

  // Serial diff pass in slot order: identical recorder emissions and
  // float accumulation order to the historical one-snapshot-at-a-time
  // loop. A slot's "previous path" is slot-1's, valid only when slot-1
  // was reachable (an unreachable snapshot breaks the streak).
  ChurnStats stats;
  stats.snapshots = static_cast<int>(times.size());
  int jaccard_steps = 0;
  int jitter_steps = 0;
  double jaccard_sum = 0.0;
  double jitter_sum = 0.0;
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  uint64_t unreachable = 0;
  for (size_t s = 0; s < slots.size(); ++s) {
    const double rtt = slots[s].rtt[0];
    if (rtt == kInf) {
      ++unreachable;
      continue;
    }
    recorder.Record(times[s], "churn.pair.rtt_ms", rtt);
    if (s > 0 && slots[s - 1].rtt[0] != kInf) {
      const std::span<const graph::NodeId> cur = slots[s].PathNodes(0);
      const std::span<const graph::NodeId> prev = slots[s - 1].PathNodes(0);
      const bool changed = !std::equal(cur.begin(), cur.end(), prev.begin(),
                                       prev.end());
      if (changed) {
        ++stats.path_changes;
        if (net_trace.Enabled()) {
          net_trace.AddRouteChange(static_cast<int>(s), 0, rtt,
                                   {cur.begin(), cur.end()});
        }
      }
      recorder.Record(times[s], "churn.pair.changed", changed ? 1.0 : 0.0);
      jaccard_sum += JaccardSorted(prev, cur);
      ++jaccard_steps;
      jitter_sum += std::fabs(rtt - slots[s - 1].rtt[0]);
      ++jitter_steps;
    }
  }
  stats.mean_jaccard = jaccard_steps > 0 ? jaccard_sum / jaccard_steps : 1.0;
  stats.rtt_jitter_ms = jitter_steps > 0 ? jitter_sum / jitter_steps : 0.0;
  CountStudyPairs(slots.size() - unreachable, unreachable);
  return stats;
}

AggregateChurn RunAggregateChurnStudy(const NetworkModel& model,
                                      const std::vector<CityPair>& pairs,
                                      const SnapshotSchedule& schedule) {
  const obs::Span span("study.churn_aggregate");
  struct PairTotals {
    int changes{0};
    int steps{0};
    double jaccard_sum{0.0};
    double jitter_sum{0.0};
  };
  std::vector<PairTotals> totals(pairs.size());

  const std::vector<double> times = schedule.Times();
  const std::vector<SlotRoutes> slots =
      SweepRoutes(model, pairs, times, "churn_aggregate");

  // Serial diff pass, slot-major with pairs inner — the historical
  // accumulation order, so per-pair float sums are bit-identical.
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  uint64_t routed = 0;
  uint64_t unreachable = 0;
  for (size_t s = 0; s < slots.size(); ++s) {
    int step_changes = 0;
    int step_routed = 0;
    int step_unreachable = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double rtt = slots[s].rtt[i];
      if (rtt == kInf) {
        ++step_unreachable;
        continue;
      }
      ++step_routed;
      if (s > 0 && slots[s - 1].rtt[i] != kInf) {
        PairTotals& pt = totals[i];
        const std::span<const graph::NodeId> cur = slots[s].PathNodes(i);
        const std::span<const graph::NodeId> prev = slots[s - 1].PathNodes(i);
        if (!std::equal(cur.begin(), cur.end(), prev.begin(), prev.end())) {
          ++pt.changes;
          ++step_changes;
          if (net_trace.Enabled()) {
            net_trace.AddRouteChange(static_cast<int>(s), static_cast<int>(i),
                                     rtt, {cur.begin(), cur.end()});
          }
        }
        pt.jaccard_sum += JaccardSorted(prev, cur);
        pt.jitter_sum += std::fabs(rtt - slots[s - 1].rtt[i]);
        ++pt.steps;
      }
    }
    recorder.Record(times[s], "churn.route_changes",
                    static_cast<double>(step_changes));
    recorder.Record(times[s], "churn.routed", static_cast<double>(step_routed));
    recorder.Record(times[s], "churn.unreachable",
                    static_cast<double>(step_unreachable));
    routed += static_cast<uint64_t>(step_routed);
    unreachable += static_cast<uint64_t>(step_unreachable);
  }

  AggregateChurn agg;
  for (const PairTotals& pt : totals) {
    if (pt.steps == 0) {
      continue;
    }
    agg.mean_change_rate += static_cast<double>(pt.changes) / pt.steps;
    agg.mean_jaccard += pt.jaccard_sum / pt.steps;
    agg.mean_rtt_jitter_ms += pt.jitter_sum / pt.steps;
    ++agg.pairs_evaluated;
  }
  if (agg.pairs_evaluated > 0) {
    agg.mean_change_rate /= agg.pairs_evaluated;
    agg.mean_jaccard /= agg.pairs_evaluated;
    agg.mean_rtt_jitter_ms /= agg.pairs_evaluated;
  }
  CountStudyPairs(routed, unreachable);
  return agg;
}

}  // namespace leosim::core
