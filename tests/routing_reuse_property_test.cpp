// Property tests for the landmark (ALT) potentials and the cross-slot
// tree-reuse cache: both are pure accelerations, so every answer they
// produce must be *bit-identical* — distances and node chains — to the
// plain Dijkstra reference, and the end-to-end churn study must not
// change under them at any thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "core/churn_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "graph/dijkstra.hpp"
#include "graph/landmarks.hpp"
#include "graph/sssp_tree.hpp"
#include "graph/tree_reuse.hpp"

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

// A long path graph in patch mode: src at one end, targets early, so
// the search labels only a prefix and everything beyond stays at
// +infinity — the exact shape the endpoint-unlabeled reuse test keys
// on.
class TreeReuseTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 64;

  void SetUp() override {
    g_.Reset(kNodes);
    edges_.clear();
    for (int v = 0; v + 1 < kNodes; ++v) {
      edges_.push_back(g_.AddEdge(v, v + 1, 1.0 + 0.01 * v));
    }
    std::vector<uint64_t> keys(edges_.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<uint64_t>(i);
    }
    g_.BeginPatchMode(keys, /*row_slack=*/2);
    g_.SetPatchDeltaRecording(true);
  }

  // Fresh reference build with its own tree + workspace, compared
  // bit-for-bit against the cache's answers for every target.
  void ExpectMatchesFresh(const graph::TreeReuseCache::RouteView& view,
                          graph::NodeId src,
                          const std::vector<graph::NodeId>& targets) {
    graph::DijkstraWorkspace fresh_ws;
    graph::ShortestPathTree fresh_tree;
    fresh_tree.Build(g_, src, targets, fresh_ws);
    for (const graph::NodeId t : targets) {
      ASSERT_TRUE(BitEq(view.DistanceTo(t), fresh_tree.DistanceTo(t)))
          << "target " << t;
      const auto a = view.PathTo(t);
      const auto b = fresh_tree.PathTo(t);
      ASSERT_EQ(a.has_value(), b.has_value()) << "target " << t;
      if (a.has_value()) {
        EXPECT_TRUE(BitEq(a->distance, b->distance)) << "target " << t;
        EXPECT_EQ(a->nodes, b->nodes) << "target " << t;
        EXPECT_EQ(a->edges, b->edges) << "target " << t;
      }
    }
  }

  graph::Graph g_;
  std::vector<graph::EdgeId> edges_;
  graph::DijkstraWorkspace ws_;
  graph::ShortestPathTree tree_;
  graph::TreeReuseCache cache_;
};

TEST_F(TreeReuseTest, DisjointDeltaReusesBitIdentically) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  auto view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 1u);
  ExpectMatchesFresh(view, src, targets);

  // Searching 0 -> {3, 5} pops 0..5 and exits before scanning node 5's
  // row, so nodes >= 6 stay unlabeled. Touching edges deep in that tail
  // cannot change the answer (the stored search never scanned them), so
  // the cache must reuse — and still match a fresh build on the mutated
  // graph.
  g_.PatchEdgeWeight(edges_[40], 9.0);
  g_.PatchRemoveEdge(edges_[50]);
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().reuses, 1u);
  EXPECT_EQ(cache_.stats().rebuilds, 1u);
  ExpectMatchesFresh(view, src, targets);

  // An untouched graph (same version) reuses trivially.
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().reuses, 2u);
  ExpectMatchesFresh(view, src, targets);
}

TEST_F(TreeReuseTest, TouchedTreeEdgeForcesRebuild) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  cache_.Route(g_, src, targets, ws_, tree_);
  ASSERT_EQ(cache_.stats().rebuilds, 1u);

  // Edge (2,3) lies on the stored tree: labeled endpoints, so reuse
  // would be unsound — the cache must rebuild and track the new weight.
  g_.PatchEdgeWeight(edges_[2], 50.0);
  auto view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  EXPECT_EQ(cache_.stats().reuses, 0u);
  ExpectMatchesFresh(view, src, targets);

  // Frontier edge (5,6): endpoint 5 was popped (labeled), so the delta
  // intersects the search and the cache must refuse reuse even though
  // this particular change happens not to alter any target's answer.
  g_.PatchEdgeWeight(edges_[5], 0.5);
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 3u);
  ExpectMatchesFresh(view, src, targets);
}

TEST_F(TreeReuseTest, TargetSetChangeAndEpochChangeForceRebuild) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  cache_.Route(g_, src, targets, ws_, tree_);

  // Different target set: only the stored call's targets are guaranteed
  // settled, so the cache may not serve {3, 5, 9} from a {3, 5} tree.
  const std::vector<graph::NodeId> more = {3, 5, 9};
  auto view = cache_.Route(g_, src, more, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  ExpectMatchesFresh(view, src, more);

  // A cleared delta breaks the epoch chain: touches made before the
  // clear are no longer enumerable, so a version change must rebuild
  // even though this particular touch is disjoint.
  g_.PatchEdgeWeight(edges_[40], 2.0);
  g_.ClearPatchDelta();
  view = cache_.Route(g_, src, more, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 3u);
  ExpectMatchesFresh(view, src, more);
}

TEST_F(TreeReuseTest, OverflowAndRecordingOffDegradeSafely) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  cache_.Route(g_, src, targets, ws_, tree_);

  // Blow past the delta cap with repeated disjoint touches: the delta
  // overflows and the cache must stop trusting it.
  for (int i = 0; i < 5000; ++i) {
    g_.PatchEdgeWeight(edges_[40], 1.0 + 0.001 * (i % 7));
  }
  EXPECT_TRUE(g_.PatchDeltaOverflowed());
  auto view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  EXPECT_EQ(cache_.stats().reuses, 0u);
  ExpectMatchesFresh(view, src, targets);

  // Recording off: pure passthrough to a live Build, stats untouched.
  g_.SetPatchDeltaRecording(false);
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  EXPECT_EQ(cache_.stats().reuses, 0u);
  ExpectMatchesFresh(view, src, targets);
}

// End-to-end: the churn study (which routes through the cache and the
// shared tier policy) must produce bit-identical aggregates at 1 and 4
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
    setenv("LEOSIM_THREADS", threads, 1);
    const core::AggregateChurn churn =
        core::RunAggregateChurnStudy(model, pairs, schedule);
    unsetenv("LEOSIM_THREADS");
    return churn;
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
