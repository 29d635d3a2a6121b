// Tests for the weighted max-min allocator and the satellite-failure study.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "core/failure_study.hpp"
#include "data/rng.hpp"
#include "flow/maxmin.hpp"
#include "graph/dijkstra.hpp"

namespace leosim {
namespace {

TEST(WeightedMaxMinTest, UnitWeightsMatchUnweighted) {
  flow::FlowNetwork net;
  const flow::LinkId a = net.AddLink(10.0);
  const flow::LinkId b = net.AddLink(4.0);
  net.AddFlow({a});
  net.AddFlow({a, b});
  net.AddFlow({b});
  const auto plain = flow::MaxMinFairAllocate(net);
  const auto weighted =
      flow::MaxMinFairAllocateWeighted(net, {1.0, 1.0, 1.0});
  ASSERT_EQ(plain.flow_rate_gbps.size(), weighted.flow_rate_gbps.size());
  for (size_t i = 0; i < plain.flow_rate_gbps.size(); ++i) {
    EXPECT_NEAR(plain.flow_rate_gbps[i], weighted.flow_rate_gbps[i], 1e-9);
  }
}

TEST(WeightedMaxMinTest, WeightsSplitSharedLinkProportionally) {
  flow::FlowNetwork net;
  const flow::LinkId l = net.AddLink(30.0);
  net.AddFlow({l});
  net.AddFlow({l});
  const auto alloc = flow::MaxMinFairAllocateWeighted(net, {2.0, 1.0});
  EXPECT_NEAR(alloc.flow_rate_gbps[0], 20.0, 1e-9);
  EXPECT_NEAR(alloc.flow_rate_gbps[1], 10.0, 1e-9);
  EXPECT_NEAR(alloc.total_gbps, 30.0, 1e-9);
}

TEST(WeightedMaxMinTest, WeightedBottleneckCascades) {
  // Link A (12) carries f1(w=1) and f2(w=2); link B (30) carries f2 and
  // f3(w=1). A bottlenecks first: shares 12/3=4 -> f1=4, f2=8. B then has
  // 22 left for f3 alone -> 22.
  flow::FlowNetwork net;
  const flow::LinkId a = net.AddLink(12.0);
  const flow::LinkId b = net.AddLink(30.0);
  net.AddFlow({a});
  net.AddFlow({a, b});
  net.AddFlow({b});
  const auto alloc = flow::MaxMinFairAllocateWeighted(net, {1.0, 2.0, 1.0});
  EXPECT_NEAR(alloc.flow_rate_gbps[0], 4.0, 1e-9);
  EXPECT_NEAR(alloc.flow_rate_gbps[1], 8.0, 1e-9);
  EXPECT_NEAR(alloc.flow_rate_gbps[2], 22.0, 1e-9);
}

TEST(WeightedMaxMinTest, NoLinkOversubscribedUnderWeights) {
  flow::FlowNetwork net;
  for (int i = 0; i < 8; ++i) {
    net.AddLink(10.0 + i);
  }
  std::vector<double> weights;
  for (int f = 0; f < 20; ++f) {
    std::vector<flow::LinkId> path;
    for (int l = 0; l < 8; ++l) {
      if ((f + 2 * l) % 3 == 0) {
        path.push_back(l);
      }
    }
    if (path.empty()) {
      path.push_back(f % 8);
    }
    net.AddFlow(path);
    weights.push_back(0.5 + (f % 4));
  }
  const auto alloc = flow::MaxMinFairAllocateWeighted(net, weights);
  for (const double u : flow::LinkUtilisation(net, alloc)) {
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(WeightedMaxMinTest, RejectsBadWeights) {
  flow::FlowNetwork net;
  const flow::LinkId l = net.AddLink(10.0);
  net.AddFlow({l});
  EXPECT_THROW(flow::MaxMinFairAllocateWeighted(net, {}), std::invalid_argument);
  EXPECT_THROW(flow::MaxMinFairAllocateWeighted(net, {0.0}), std::invalid_argument);
  EXPECT_THROW(flow::MaxMinFairAllocateWeighted(net, {-1.0}), std::invalid_argument);
}

class WeightRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(WeightRatioTest, TwoFlowRatioPreserved) {
  const double ratio = GetParam();
  flow::FlowNetwork net;
  const flow::LinkId l = net.AddLink(100.0);
  net.AddFlow({l});
  net.AddFlow({l});
  const auto alloc = flow::MaxMinFairAllocateWeighted(net, {ratio, 1.0});
  EXPECT_NEAR(alloc.flow_rate_gbps[0] / alloc.flow_rate_gbps[1], ratio, 1e-9);
  EXPECT_NEAR(alloc.total_gbps, 100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ratios, WeightRatioTest,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 5.0, 10.0));

core::NetworkModel FailureModel() {
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 4.0;
  return core::NetworkModel(core::Scenario::Starlink(), options, data::AnchorCities());
}

std::vector<core::CityPair> FailurePairs(int count) {
  core::TrafficMatrixOptions matrix;
  matrix.num_pairs = count;
  return core::SampleCityPairs(data::AnchorCities(), matrix);
}

TEST(FailureStudyTest, DegradationIsMonotoneAndHybridRobust) {
  const core::NetworkModel hybrid = FailureModel();
  const auto rows = core::RunFailureStudy(hybrid, FailurePairs(25));
  ASSERT_EQ(rows.size(), core::kFailureFractions.size());
  EXPECT_NEAR(rows[0].reachable_fraction, 1.0, 1e-9);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].failure_fraction, core::kFailureFractions[i]);
    // Reachability can only degrade as more satellites fail.
    EXPECT_GE(rows[i - 1].reachable_fraction, rows[i].reachable_fraction - 1e-9) << i;
  }
  // Hybrid should still reach most pairs at 10% failures (row 2), and
  // surviving paths get longer (or stay equal) as the mesh thins.
  ASSERT_EQ(rows[2].failure_fraction, 0.1);
  EXPECT_GT(rows[2].reachable_fraction, 0.9);
  EXPECT_GE(rows[2].mean_rtt_ms, rows[0].mean_rtt_ms - 1e-9);
}

// Every row equals a recomputation that draws each (fraction, trial)
// failure set from SplitMix64(kFailureSeed) in the study's order, fails
// it on a freshly built snapshot and routes every pair with plain
// Dijkstra. The study reuses one snapshot for all sets, so a set whose
// edges it did not restore would leak into every later one.
TEST(FailureStudyTest, RowsMatchAFreshSnapshotPerFailureSet) {
  const core::NetworkModel hybrid = FailureModel();
  const std::vector<core::CityPair> pairs = FailurePairs(25);
  const auto rows = core::RunFailureStudy(hybrid, pairs);
  ASSERT_EQ(rows.size(), core::kFailureFractions.size());

  const int num_sats = hybrid.constellation().NumSatellites();
  data::SplitMix64 rng(core::kFailureSeed);
  for (size_t f = 0; f < rows.size(); ++f) {
    const double fraction = core::kFailureFractions[f];
    const int failures = static_cast<int>(fraction * static_cast<double>(num_sats));
    const int trials = failures == 0 ? 1 : core::kFailureTrials;
    double reachable_sum = 0.0;
    double rtt_sum = 0.0;
    int rtt_count = 0;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<int> order(static_cast<size_t>(num_sats));
      std::iota(order.begin(), order.end(), 0);
      for (int i = 0; i < failures; ++i) {
        std::swap(order[static_cast<size_t>(i)],
                  order[static_cast<size_t>(i + rng.NextInt(num_sats - i))]);
      }
      core::NetworkModel::Snapshot snap = hybrid.BuildSnapshot(0.0);
      for (int i = 0; i < failures; ++i) {
        for (const graph::HalfEdge& half :
             snap.graph.Neighbours(snap.SatNode(order[static_cast<size_t>(i)]))) {
          snap.graph.SetEnabled(half.edge, false);
        }
      }
      int reachable = 0;
      for (const core::CityPair& pair : pairs) {
        const auto path = graph::ShortestPath(snap.graph, snap.CityNode(pair.a),
                                              snap.CityNode(pair.b));
        if (path.has_value()) {
          ++reachable;
          rtt_sum += 2.0 * path->distance;
          ++rtt_count;
        }
      }
      reachable_sum += static_cast<double>(reachable) / pairs.size();
    }
    EXPECT_EQ(rows[f].failure_fraction, fraction);
    EXPECT_EQ(rows[f].reachable_fraction, reachable_sum / trials) << "fraction " << fraction;
    EXPECT_EQ(rows[f].mean_rtt_ms, rtt_count > 0 ? rtt_sum / rtt_count : 0.0)
        << "fraction " << fraction;
  }
}

}  // namespace
}  // namespace leosim
