#include "core/latency_study.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "core/net_trace.hpp"
#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/stats.hpp"
#include "core/temporal_sweep.hpp"
#include "geo/coordinates.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<PairRttSeries> InitSeries(const std::vector<CityPair>& pairs,
                                      size_t num_snapshots) {
  std::vector<PairRttSeries> series;
  series.reserve(pairs.size());
  for (const CityPair& p : pairs) {
    PairRttSeries s;
    s.pair = p;
    s.rtt_ms.assign(num_snapshots, kInf);
    series.push_back(std::move(s));
  }
  return series;
}

// Copies each slot's routed RTTs into the pair-major series. The sweep
// writes one slot-indexed table per item, so workers never share a
// write target; this serial pass transposes the tables.
void FillSeries(const std::vector<SlotRoutes>& slots,
                std::vector<PairRttSeries>* series) {
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    for (size_t i = 0; i < series->size(); ++i) {
      (*series)[i].rtt_ms[slot] = slots[slot].rtt[i];
    }
  }
}

// One sample per snapshot per series: the cross-pair RTT distribution
// (p50/p95 over reachable pairs) and the unreachable-pair count. Derived
// from the completed series after the parallel sweep and emitted through
// RecordSeries' serial slot walk, so recording is independent of worker
// scheduling.
void RecordLatencyTimeseries(const std::string& prefix,
                             const std::vector<double>& times,
                             const std::vector<PairRttSeries>& series) {
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  if (!recorder.Enabled()) {
    return;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> unreachable(times.size(), 0.0);
  std::vector<double> p50(times.size(), nan);  // NaN = no sample this slot
  std::vector<double> p95(times.size(), nan);
  std::vector<double> reachable;
  for (size_t slot = 0; slot < times.size(); ++slot) {
    reachable.clear();
    for (const PairRttSeries& s : series) {
      const double rtt = s.rtt_ms[slot];
      if (rtt == kInf) {
        unreachable[slot] += 1.0;
      } else {
        reachable.push_back(rtt);
      }
    }
    if (!reachable.empty()) {
      p50[slot] = Percentile(reachable, 50.0);
      p95[slot] = Percentile(reachable, 95.0);
    }
  }
  recorder.RecordSeries(prefix + ".unreachable", times, unreachable);
  recorder.RecordSeries(prefix + ".rtt_p50_ms", times, p50);
  recorder.RecordSeries(prefix + ".rtt_p95_ms", times, p95);
}

// Emits reachability *transitions* for every pair of the hybrid series
// into the network trace: a pair that routes at slot s after failing at
// s-1 raises `reachable`, the reverse raises `unreachable`. Serial and
// slot-major, so the event order inside each slot is the pair order —
// deterministic regardless of how the sweep scheduled the routing.
void RecordReachabilityTransitions(const std::vector<PairRttSeries>& series) {
  NetTraceRecorder& recorder = NetTraceRecorder::Global();
  if (!recorder.Enabled()) {
    return;
  }
  if (series.empty()) {
    return;
  }
  const size_t slots = series.front().rtt_ms.size();
  for (size_t slot = 1; slot < slots; ++slot) {
    for (size_t i = 0; i < series.size(); ++i) {
      const double prev = series[i].rtt_ms[slot - 1];
      const double cur = series[i].rtt_ms[slot];
      if (prev == kInf && cur != kInf) {
        recorder.AddReachable(static_cast<int>(slot), static_cast<int>(i), cur);
      } else if (prev != kInf && cur == kInf) {
        recorder.AddUnreachable(static_cast<int>(slot), static_cast<int>(i));
      }
    }
  }
}

}  // namespace

void SnapshotSchedule::Validate() const {
  // Any other step never reaches the end of the schedule.
  if (!(step_sec > 0.0) || !std::isfinite(step_sec) ||
      !std::isfinite(duration_sec) || !(duration_sec + step_sec > duration_sec)) {
    throw std::invalid_argument(
        "SnapshotSchedule needs a finite step_sec > 0 that advances past a "
        "finite duration_sec");
  }
}

std::vector<double> SnapshotSchedule::Times() const {
  Validate();
  std::vector<double> times;
  for (double t = 0.0; t < duration_sec; t += step_sec) {
    times.push_back(t);
  }
  return times;
}

double PairRttSeries::MinRtt() const {
  double best = kInf;
  for (const double r : rtt_ms) {
    best = std::min(best, r);
  }
  return best;
}

double PairRttSeries::MaxRtt() const {
  double worst = -kInf;
  for (const double r : rtt_ms) {
    if (r != kInf) {
      worst = std::max(worst, r);
    }
  }
  return worst;
}

double PairRttSeries::Range() const {
  const double min = MinRtt();
  const double max = MaxRtt();
  if (min == kInf || max == -kInf) {
    return kInf;  // never reachable
  }
  return max - min;
}

int PairRttSeries::UnreachableCount() const {
  return static_cast<int>(std::count(rtt_ms.begin(), rtt_ms.end(), kInf));
}

std::vector<double> LatencyStudyResult::MinRtts(
    const std::vector<PairRttSeries>& series) const {
  std::vector<double> values;
  for (const PairRttSeries& s : series) {
    const double v = s.MinRtt();
    if (v != kInf) {
      values.push_back(v);
    }
  }
  return values;
}

std::vector<double> LatencyStudyResult::Ranges(
    const std::vector<PairRttSeries>& series) const {
  std::vector<double> values;
  for (const PairRttSeries& s : series) {
    const double v = s.Range();
    if (v != kInf) {
      values.push_back(v);
    }
  }
  return values;
}

LatencyStudyResult RunLatencyStudy(const NetworkModel& bp_model,
                                   const NetworkModel& hybrid_model,
                                   const std::vector<CityPair>& pairs,
                                   const SnapshotSchedule& schedule) {
  const obs::Span span("study.latency");
  std::string mismatch;
  if (!CanDeriveBentPipeByMasking(bp_model, hybrid_model, &mismatch)) {
    throw std::invalid_argument(
        "latency study needs a bent-pipe model that is the hybrid model "
        "without ISLs: " + mismatch);
  }
  LatencyStudyResult result;
  result.snapshot_times = schedule.Times();
  result.bp = InitSeries(pairs, result.snapshot_times.size());
  result.hybrid = InitSeries(pairs, result.snapshot_times.size());
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  std::vector<SlotRoutes> bp_slots(result.snapshot_times.size());
  std::vector<SlotRoutes> hybrid_slots(result.snapshot_times.size());

  // Each slot is built ONCE (the hybrid snapshot) and the bent-pipe
  // answers come from the same snapshot with its ISL edges masked off —
  // bit-identical to a dedicated bent-pipe build (see
  // CanDeriveBentPipeByMasking) at half the construction cost.
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  if (net_trace.Enabled()) {
    net_trace.SetTimeline(result.snapshot_times);
  }
  const TemporalSweep sweep(result.snapshot_times);
  sweep.Run("latency", [&](const SweepItem& item, SweepWorkspace& ws) {
    NetworkModel::Snapshot& snap =
        hybrid_model.BuildSnapshot(item.time_sec, &ws.snapshot);
    const size_t slot = static_cast<size_t>(item.slot);
    // Capture before the ISL masking below: the traced network is the
    // hybrid topology as built, and distinct slots never race.
    if (net_trace.Enabled()) {
      net_trace.CaptureSlot(item.slot, item.time_sec, snap);
    }
    RouteSlotPairsHybridAndBentPipe(snap, pairs, groups, &ws,
                                    &hybrid_slots[slot], &bp_slots[slot]);
  });
  FillSeries(bp_slots, &result.bp);
  FillSeries(hybrid_slots, &result.hybrid);

  RecordLatencyTimeseries("latency.bp", result.snapshot_times, result.bp);
  RecordLatencyTimeseries("latency.hybrid", result.snapshot_times,
                          result.hybrid);
  RecordReachabilityTransitions(result.hybrid);
  uint64_t queries = 0;
  uint64_t unreachable = 0;
  for (const std::vector<PairRttSeries>* series : {&result.bp, &result.hybrid}) {
    for (const PairRttSeries& s : *series) {
      queries += s.rtt_ms.size();
      unreachable += static_cast<uint64_t>(s.UnreachableCount());
    }
  }
  CountStudyPairs(queries - unreachable, unreachable);
  return result;
}

std::vector<PathObservation> TracePairPath(const NetworkModel& model,
                                           const std::string& city_a,
                                           const std::string& city_b,
                                           const SnapshotSchedule& schedule) {
  const obs::Span span("study.latency_trace");
  const std::vector<CityPair> pair = {
      {model.CityIndex(city_a), model.CityIndex(city_b)}};
  const std::vector<SourceGroup> groups = GroupPairsBySource(pair);

  const std::vector<double> times = schedule.Times();
  std::vector<PathObservation> trace(times.size());
  // One slot per sweep item, each observation written to its own slot;
  // the reachability counts are summed serially afterwards.
  const TemporalSweep sweep(times);
  sweep.Run("latency_trace", [&](const SweepItem& item, SweepWorkspace& ws) {
    const NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    SlotRoutes routes;
    RouteSlotPairs(snap, pair, groups, /*want_paths=*/true, &ws, &routes);
    PathObservation& obs = trace[static_cast<size_t>(item.slot)];
    obs.time_sec = item.time_sec;
    if (routes.rtt[0] == kInf) {
      return;
    }
    obs.reachable = true;
    obs.rtt_ms = routes.rtt[0];
    const std::span<const graph::NodeId> path = routes.PathNodes(0);
    for (size_t i = 0; i < path.size(); ++i) {
      const graph::NodeId n = path[i];
      const bool endpoint = i == 0 || i + 1 == path.size();
      if (snap.IsSat(n)) {
        ++obs.satellite_hops;
      } else if (snap.IsAircraft(n)) {
        ++obs.aircraft_hops;
      } else if (snap.IsRelay(n)) {
        ++obs.relay_hops;
      } else if (!endpoint) {
        ++obs.city_hops;
      }
      const geo::GeodeticCoord g =
          geo::EcefToGeodetic(snap.node_ecef[static_cast<size_t>(n)]);
      obs.max_node_latitude_deg = std::max(obs.max_node_latitude_deg, g.latitude_deg);
      obs.min_node_latitude_deg = std::min(obs.min_node_latitude_deg, g.latitude_deg);
    }
  });

  uint64_t routed = 0;
  for (const PathObservation& obs : trace) {
    routed += obs.reachable ? 1 : 0;
  }
  CountStudyPairs(routed, trace.size() - routed);
  return trace;
}

}  // namespace leosim::core
