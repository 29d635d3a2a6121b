// Property tests for the landmark (ALT) potentials: they are a pure
// acceleration, so every answer they produce must be *bit-identical* —
// distances and node chains — to the plain Dijkstra reference, and the
// end-to-end churn study must not change at any thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/churn_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "graph/dijkstra.hpp"
#include "graph/landmarks.hpp"
#include "scoped_threads.hpp"

namespace leosim {
namespace {

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// ALT-guided A* vs plain Dijkstra over real snapshot graphs: identical
// optional-ness, bit-identical distance, identical node chain (the
// admissible consistent potential cannot change which path wins, only
// how much of the graph the search settles).
TEST(LandmarkRouting, AltAStarMatchesDijkstraOnSnapshots) {
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 4.0;
  options.use_aircraft = false;
  const core::NetworkModel model(core::Scenario::Starlink(), options,
                                 data::AnchorCities());
  const int num_cities = static_cast<int>(model.cities().size());

  graph::DijkstraWorkspace ws_ref;
  graph::DijkstraWorkspace ws_alt;
  graph::DijkstraWorkspace ws_table;
  graph::LandmarkTable table;
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> pick(0, num_cities - 1);

  for (const double t : {0.0, 300.0, 3600.0}) {
    const core::NetworkModel::Snapshot snap = model.BuildSnapshot(t);
    table.Rebuild(snap.graph, ws_table);
    EXPECT_EQ(static_cast<int>(table.landmarks().size()),
              graph::LandmarkTable::kDefaultNumLandmarks);

    for (int q = 0; q < 40; ++q) {
      const graph::NodeId src = snap.CityNode(pick(rng));
      const graph::NodeId dst = snap.CityNode(pick(rng));
      if (src == dst) {
        continue;
      }
      table.SetDestination(dst);
      const auto potential = [&table](graph::NodeId n) {
        return table.Potential(n);
      };
      const auto alt =
          graph::ShortestPathAStar(snap.graph, src, dst, ws_alt, potential);
      const auto ref = graph::ShortestPath(snap.graph, src, dst, ws_ref);
      ASSERT_EQ(alt.has_value(), ref.has_value()) << "t=" << t << " q=" << q;
      if (ref.has_value()) {
        EXPECT_TRUE(BitEq(alt->distance, ref->distance))
            << "t=" << t << " src=" << src << " dst=" << dst;
        EXPECT_EQ(alt->nodes, ref->nodes)
            << "t=" << t << " src=" << src << " dst=" << dst;
      }
      // The potential must vanish at the destination and lower-bound
      // the true distance at the source (admissibility spot check).
      EXPECT_EQ(table.Potential(dst), 0.0);
      if (ref.has_value()) {
        EXPECT_LE(table.Potential(src), ref->distance);
      }
    }
  }
}

// End-to-end: the churn study (which routes through the per-slot router
// and its tiers) must produce bit-identical aggregates at 1 and 4
// threads.
TEST(RoutingReuseProperty, ChurnAggregateThreadInvariant) {
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 4.0;
  options.use_aircraft = false;
  const core::NetworkModel model(core::Scenario::Starlink(), options,
                                 data::AnchorCities());
  core::TrafficMatrixOptions traffic;
  traffic.num_pairs = 12;
  const std::vector<core::CityPair> pairs =
      core::SampleCityPairs(data::AnchorCities(), traffic);
  core::SnapshotSchedule schedule;
  schedule.duration_sec = 10.0 * 60.0;
  schedule.step_sec = 60.0;

  const auto run = [&](const char* threads) {
    const core::ScopedThreads scope(threads);
    return core::RunAggregateChurnStudy(model, pairs, schedule);
  };
  const core::AggregateChurn a = run("1");
  const core::AggregateChurn b = run("4");
  EXPECT_TRUE(BitEq(a.mean_change_rate, b.mean_change_rate));
  EXPECT_TRUE(BitEq(a.mean_jaccard, b.mean_jaccard));
  EXPECT_TRUE(BitEq(a.mean_rtt_jitter_ms, b.mean_rtt_jitter_ms));
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
}

}  // namespace
}  // namespace leosim
