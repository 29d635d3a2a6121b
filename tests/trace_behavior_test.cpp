// Golden behavioral tests for the network-state trace: the trace must
// agree with what the simulation actually did, checked against
// *independent* recomputations rather than the recorder's own data.
//
//   * A captured slot's full state equals a freshly rebuilt snapshot at
//     that slot's time — node kinds, positions, and every enabled link
//     with its delay and capacity ("the path taken at slot t can be
//     read off the trace").
//   * route_change events appear at exactly the slots where an
//     independently computed shortest path's node set changes, and
//     carry that slot's node set and RTT ("churn events appear at the
//     right slots").
//   * The handover study emits an event-only trace whose lost/gained
//     sets are non-empty satellite ids.
//
// The acceptance criterion requires these to hold under
// LEOSIM_THREADS=1 and 4, so the route-change check runs at both.
#include "core/net_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/churn_study.hpp"
#include "core/handover_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "graph/dijkstra.hpp"
#include "scoped_threads.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 6.0;
  options.aircraft_scale = 1.0;
  return options;
}

// Mirrors CaptureSlot's link extraction from an independently built
// snapshot: enabled edges, endpoints normalized a < b, sorted by (a, b).
std::vector<NetTraceRecorder::Link> ExtractLinks(
    const NetworkModel::Snapshot& snap, const std::vector<graph::EdgeId>& ids) {
  std::vector<NetTraceRecorder::Link> out;
  for (const graph::EdgeId e : ids) {
    if (!snap.graph.IsEnabled(e)) {
      continue;
    }
    const graph::EdgeRecord& rec = snap.graph.Edge(e);
    NetTraceRecorder::Link link;
    link.a = std::min(rec.a, rec.b);
    link.b = std::max(rec.a, rec.b);
    link.delay_ms = rec.weight;
    link.capacity_gbps = rec.capacity;
    out.push_back(link);
  }
  std::sort(out.begin(), out.end(),
            [](const NetTraceRecorder::Link& x, const NetTraceRecorder::Link& y) {
              return std::pair(x.a, x.b) < std::pair(y.a, y.b);
            });
  return out;
}

void ExpectLinksEqual(const std::vector<NetTraceRecorder::Link>& expected,
                      const std::vector<NetTraceRecorder::Link>& captured,
                      const char* what) {
  ASSERT_EQ(expected.size(), captured.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].a, captured[i].a) << what << " link " << i;
    EXPECT_EQ(expected[i].b, captured[i].b) << what << " link " << i;
    EXPECT_EQ(expected[i].delay_ms, captured[i].delay_ms) << what << " link " << i;
    EXPECT_EQ(expected[i].capacity_gbps, captured[i].capacity_gbps)
        << what << " link " << i;
  }
}

TEST(TraceBehaviorTest, CapturedSlotStateMatchesIndependentRebuild) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid),
                            data::AnchorCities());
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 4;
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 120.0;
  RunAggregateChurnStudy(hybrid, SampleCityPairs(data::AnchorCities(), traffic),
                         schedule);

  const std::vector<double> times = schedule.Times();
  ASSERT_EQ(net_trace.NumSlots(), static_cast<int>(times.size()));
  for (const int slot : {0, static_cast<int>(times.size()) / 2,
                         static_cast<int>(times.size()) - 1}) {
    const NetTraceRecorder::SlotRecord& record = net_trace.Slot(slot);
    ASSERT_TRUE(record.captured) << "slot " << slot;
    const NetworkModel::Snapshot snap =
        hybrid.BuildSnapshot(times[static_cast<size_t>(slot)]);
    EXPECT_EQ(record.num_sats, snap.num_sats);
    EXPECT_EQ(record.num_cities, snap.num_cities);
    EXPECT_EQ(record.num_relays, snap.num_relays);
    EXPECT_EQ(record.num_aircraft, snap.num_aircraft);
    ASSERT_EQ(record.node_ecef.size(), snap.node_ecef.size());
    for (size_t i = 0; i < snap.node_ecef.size(); ++i) {
      EXPECT_EQ(record.node_ecef[i].x, snap.node_ecef[i].x) << "node " << i;
      EXPECT_EQ(record.node_ecef[i].y, snap.node_ecef[i].y) << "node " << i;
      EXPECT_EQ(record.node_ecef[i].z, snap.node_ecef[i].z) << "node " << i;
    }
    ExpectLinksEqual(ExtractLinks(snap, snap.radio_edges), record.radio_links,
                     "radio");
    ExpectLinksEqual(ExtractLinks(snap, snap.isl_edges), record.isl_links,
                     "isl");
  }

  net_trace.Enable(false);
  net_trace.Reset();
}

// The single pair's sorted shortest-path node set per slot, recomputed
// from scratch (fresh snapshot, plain single-pair Dijkstra). nullopt
// when unreachable.
std::vector<std::optional<std::vector<int32_t>>> IndependentPathSets(
    const NetworkModel& model, const std::vector<double>& times, int city_a,
    int city_b, std::vector<double>* rtt_out) {
  std::vector<std::optional<std::vector<int32_t>>> out;
  for (const double t : times) {
    const NetworkModel::Snapshot snap = model.BuildSnapshot(t);
    const auto path = graph::ShortestPath(snap.graph, snap.CityNode(city_a),
                                          snap.CityNode(city_b));
    if (!path.has_value()) {
      out.emplace_back(std::nullopt);
      rtt_out->push_back(0.0);
      continue;
    }
    std::vector<int32_t> nodes(path->nodes.begin(), path->nodes.end());
    std::sort(nodes.begin(), nodes.end());
    out.emplace_back(std::move(nodes));
    rtt_out->push_back(2.0 * path->distance);
  }
  return out;
}

void CheckRouteChangeEventsAtThreads(const char* threads) {
  const ScopedThreads scope(threads);
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  // Bent-pipe: every path is GT-sat-GT hops over moving satellites, so
  // a 600 s window churns routes — the paper's core observation.
  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  const std::vector<data::City>& cities = bp.cities();
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 600.0;
  RunChurnStudy(bp, cities[0].name, cities[1].name, schedule);

  const std::vector<double> times = schedule.Times();
  std::vector<double> rtts;
  const auto paths = IndependentPathSets(bp, times, 0, 1, &rtts);

  int expected_changes = 0;
  for (size_t s = 1; s < times.size(); ++s) {
    const NetTraceRecorder::SlotRecord& record =
        net_trace.Slot(static_cast<int>(s));
    std::vector<const NetTraceRecorder::StudyEvent*> route_events;
    for (const NetTraceRecorder::StudyEvent& event : record.events) {
      if (event.kind == NetTraceRecorder::StudyEvent::Kind::kRouteChange) {
        route_events.push_back(&event);
      }
    }
    const bool change_expected = paths[s].has_value() &&
                                 paths[s - 1].has_value() &&
                                 *paths[s] != *paths[s - 1];
    if (!change_expected) {
      EXPECT_TRUE(route_events.empty())
          << "slot " << s << ": unexpected route_change event";
      continue;
    }
    ++expected_changes;
    ASSERT_EQ(route_events.size(), 1u) << "slot " << s;
    EXPECT_EQ(route_events[0]->pair, 0);
    EXPECT_EQ(route_events[0]->nodes, *paths[s]) << "slot " << s;
    EXPECT_EQ(route_events[0]->rtt_ms, rtts[s]) << "slot " << s;
  }
  // A 10-minute bent-pipe window without a single route change would
  // mean the trace is dropping churn; the paper's Fig. 2(b) regime
  // changes paths every few snapshots.
  EXPECT_GT(expected_changes, 0);

  net_trace.Enable(false);
  net_trace.Reset();
}

TEST(TraceBehaviorTest, RouteChangeEventsMatchIndependentPathsAt1Thread) {
  CheckRouteChangeEventsAtThreads("1");
}

TEST(TraceBehaviorTest, RouteChangeEventsMatchIndependentPathsAt4Threads) {
  CheckRouteChangeEventsAtThreads("4");
}

TEST(TraceBehaviorTest, HandoverStudyEmitsEventOnlyTrace) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  const HandoverStats stats = RunHandoverStudy(Scenario::Starlink(), {40.7, -74.0, 0.0});

  ASSERT_GT(net_trace.NumSlots(), 0);
  // No snapshots are built, so the full-state stream stays empty while
  // the event stream still has one line per slot.
  EXPECT_TRUE(net_trace.NetStateJsonl().empty());
  EXPECT_FALSE(net_trace.NetEventsJsonl().empty());

  int handover_events = 0;
  for (int slot = 0; slot < net_trace.NumSlots(); ++slot) {
    for (const NetTraceRecorder::StudyEvent& event :
         net_trace.Slot(slot).events) {
      ASSERT_EQ(event.kind, NetTraceRecorder::StudyEvent::Kind::kHandover);
      ++handover_events;
      EXPECT_FALSE(event.nodes.empty() && event.nodes2.empty())
          << "slot " << slot << ": handover with neither lost nor gained";
      for (const int32_t sat : event.nodes) {
        EXPECT_GE(sat, 0);
      }
      for (const int32_t sat : event.nodes2) {
        EXPECT_GE(sat, 0);
      }
    }
  }
  // A pass ending is exactly a "lost satellite" handover event; the
  // study found some, so the trace must carry some.
  if (stats.completed_passes > 0 || stats.pass_endings_per_hour > 0.0) {
    EXPECT_GT(handover_events, 0);
  }

  net_trace.Enable(false);
  net_trace.Reset();
}

}  // namespace
}  // namespace leosim::core
