// The throughput study's two halves: the routing entry
// (core::RouteThroughputPaths) and the flow builder (core::FlowsFromPaths)
// against the network every flow workload used to build
// (plain_flows_oracle.hpp): one flow link per graph edge (two under
// separate up/down capacities) and one flow per plain
// KEdgeDisjointShortestPaths path, in pair order. On bent-pipe and hybrid
// snapshots at two times, for k = 1 and 4 and both capacity models, the
// builder's network must be that network restricted to the links some
// flow crosses, numbered in the same order, and its max-min rates,
// weighted max-min rates and temporal outcomes must equal the all-edges
// network's bit for bit. Routing once and allocating per variant relies
// on two more facts checked here: a pair's k = 1 path is its first k = 4
// path, and paths routed on one ISL capacity allocate over another's
// snapshot graph exactly as that model's own paths do.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network_builder.hpp"
#include "core/scenario.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "data/rng.hpp"
#include "flow/maxmin.hpp"
#include "flow/temporal.hpp"
#include "plain_flows_oracle.hpp"

namespace leosim::core {
namespace {

void ExpectSameOutcomes(const flow::TemporalResult& expected,
                        const flow::TemporalResult& actual, const std::string& what) {
  ASSERT_EQ(actual.outcomes.size(), expected.outcomes.size()) << what;
  for (size_t f = 0; f < expected.outcomes.size(); ++f) {
    EXPECT_EQ(actual.outcomes[f].completed, expected.outcomes[f].completed)
        << what << " flow " << f;
    EXPECT_EQ(actual.outcomes[f].completion_time_sec,
              expected.outcomes[f].completion_time_sec)
        << what << " flow " << f;
  }
  EXPECT_EQ(actual.completed, expected.completed) << what;
  EXPECT_EQ(actual.starved, expected.starved) << what;
  EXPECT_EQ(actual.makespan_sec, expected.makespan_sec) << what;
}

TEST(RouteThroughputPathsTest, CompactedNetworkAllocatesLikeTheAllEdgesOne) {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 100;
  const std::vector<CityPair> pairs = SampleCityPairs(data::AnchorCities(), traffic);
  for (const ConnectivityMode mode :
       {ConnectivityMode::kBentPipe, ConnectivityMode::kHybrid}) {
    NetworkOptions options;
    options.mode = mode;
    options.relay_spacing_deg = 4.0;
    const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
    for (const double t : {0.0, 2700.0}) {
      NetworkModel::Snapshot snap = model.BuildSnapshot(t);
      SweepWorkspace ws;
      for (const int k : {1, 4}) {
        std::vector<std::vector<graph::Path>> paths;
        const NetworkModel::Snapshot& routed_snap =
            RouteThroughputPaths(model, pairs, k, t, &ws, &paths);
        for (const CapacityModel capacity :
             {CapacityModel::kSharedPerLink, CapacityModel::kSeparateUpDown}) {
          const bool directional = capacity == CapacityModel::kSeparateUpDown;
          const std::string what = std::string(ToString(mode)) + " t=" +
                                   std::to_string(t) + " k=" + std::to_string(k) +
                                   (directional ? " up/down" : " shared");
          const oracle::AllEdges full =
              oracle::BuildAllEdges(snap, pairs, k, directional);
          const RoutedFlows routed = FlowsFromPaths(routed_snap.graph, paths, capacity);
          ASSERT_GT(full.net.NumFlows(), 0) << what;
          ASSERT_EQ(routed.pair_of_flow, full.pair_of_flow) << what;

          // The compacted links are the crossed ones, in id order.
          std::vector<flow::LinkId> crossed;
          for (flow::FlowId f = 0; f < full.net.NumFlows(); ++f) {
            crossed.insert(crossed.end(), full.net.FlowLinks(f).begin(),
                           full.net.FlowLinks(f).end());
          }
          std::sort(crossed.begin(), crossed.end());
          crossed.erase(std::unique(crossed.begin(), crossed.end()), crossed.end());
          ASSERT_EQ(routed.net.NumLinks(), static_cast<int>(crossed.size())) << what;
          for (size_t l = 0; l < crossed.size(); ++l) {
            EXPECT_EQ(routed.net.LinkCapacity(static_cast<flow::LinkId>(l)),
                      full.net.LinkCapacity(crossed[l]))
                << what << " link " << l;
          }
          for (flow::FlowId f = 0; f < full.net.NumFlows(); ++f) {
            std::vector<flow::LinkId> expected;
            for (const flow::LinkId l : full.net.FlowLinks(f)) {
              expected.push_back(static_cast<flow::LinkId>(
                  std::lower_bound(crossed.begin(), crossed.end(), l) -
                  crossed.begin()));
            }
            EXPECT_EQ(routed.net.FlowLinks(f), expected) << what << " flow " << f;
          }

          const flow::Allocation full_rates = flow::MaxMinFairAllocate(full.net);
          const flow::Allocation rates = flow::MaxMinFairAllocate(routed.net);
          EXPECT_EQ(rates.flow_rate_gbps, full_rates.flow_rate_gbps) << what;
          EXPECT_EQ(rates.total_gbps, full_rates.total_gbps) << what;

          data::SplitMix64 rng(7);
          std::vector<double> weights(static_cast<size_t>(full.net.NumFlows()));
          std::vector<flow::TemporalFlow> flows(weights.size());
          for (size_t f = 0; f < weights.size(); ++f) {
            weights[f] = rng.Uniform(0.5, 4.0);
            flows[f] = {rng.Uniform(0.0, 30.0), rng.Uniform(40.0, 400.0)};
          }
          EXPECT_EQ(flow::MaxMinFairAllocateWeighted(routed.net, weights).flow_rate_gbps,
                    flow::MaxMinFairAllocateWeighted(full.net, weights).flow_rate_gbps)
              << what;
          ExpectSameOutcomes(flow::SimulateTemporal(full.net, flows),
                             flow::SimulateTemporal(routed.net, flows), what);
        }
      }
    }
  }
}

TEST(RouteThroughputPathsTest, RejectsPathCountBelowOne) {
  NetworkOptions options;
  options.relay_spacing_deg = 4.0;
  const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
  SweepWorkspace ws;
  std::vector<std::vector<graph::Path>> paths;
  const std::vector<CityPair> pairs = {{0, 1}};
  for (const int k : {0, -1}) {
    EXPECT_THROW(RouteThroughputPaths(model, pairs, k, 0.0, &ws, &paths),
                 std::invalid_argument);
  }
}

std::vector<CityPair> SampledPairs(int n) {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = n;
  return SampleCityPairs(data::AnchorCities(), traffic);
}

NetworkModel Model(ConnectivityMode mode, double isl_capacity_gbps) {
  Scenario scenario = Scenario::Starlink();
  scenario.isl.capacity_gbps = isl_capacity_gbps;
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  return NetworkModel(scenario, options, data::AnchorCities());
}

// fig4_throughput allocates k = 1 over each pair's first k = 4 path. 100
// pairs reach the ALT tier at k = 4 (4 searches per pair) and stay below
// it at k = 1, so the two routes also take different search tiers.
TEST(RouteThroughputPathsTest, SinglePathIsTheFirstOfFour) {
  const std::vector<CityPair> pairs = SampledPairs(100);
  for (const ConnectivityMode mode :
       {ConnectivityMode::kBentPipe, ConnectivityMode::kHybrid}) {
    const NetworkModel model = Model(mode, 100.0);
    for (const double t : {0.0, 900.0, 1800.0, 2700.0}) {
      const std::string what = std::string(ToString(mode)) + " t=" + std::to_string(t);
      SweepWorkspace ws;
      std::vector<std::vector<graph::Path>> one;
      std::vector<std::vector<graph::Path>> four;
      RouteThroughputPaths(model, pairs, 1, t, &ws, &one);
      RouteThroughputPaths(model, pairs, 4, t, &ws, &four);
      ASSERT_EQ(one.size(), pairs.size()) << what;
      ASSERT_EQ(four.size(), pairs.size()) << what;
      int routed = 0;
      int multipath = 0;
      for (size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_EQ(one[i].size(), four[i].empty() ? 0u : 1u) << what << " pair " << i;
        if (one[i].empty()) {
          continue;
        }
        ++routed;
        multipath += four[i].size() > 1 ? 1 : 0;
        const graph::Path& first = four[i].front();
        EXPECT_EQ(one[i][0].edges, first.edges) << what << " pair " << i;
        EXPECT_EQ(one[i][0].nodes, first.nodes) << what << " pair " << i;
        EXPECT_EQ(one[i][0].distance, first.distance) << what << " pair " << i;
      }
      // Not vacuous: most pairs route, and many have paths after the first.
      EXPECT_GT(routed, 50) << what;
      EXPECT_GT(multipath, 25) << what;
    }
  }
}

// fig5_isl_capacity routes the hybrid slot on one ISL capacity and
// allocates every ratio over its own model's snapshot graph.
TEST(RouteThroughputPathsTest, PathsAllocateOverAnotherIslCapacity) {
  const std::vector<CityPair> pairs = SampledPairs(60);
  const double t = 1800.0;
  const double capacities[2] = {10.0, 100.0};  // 0.5x and 5x GT-sat
  for (int from = 0; from < 2; ++from) {
    const int to = 1 - from;
    const NetworkModel routing = Model(ConnectivityMode::kHybrid, capacities[from]);
    const NetworkModel target = Model(ConnectivityMode::kHybrid, capacities[to]);
    SweepWorkspace routing_ws;
    SweepWorkspace target_ws;
    SweepWorkspace fresh_ws;
    std::vector<std::vector<graph::Path>> paths;
    std::vector<std::vector<graph::Path>> fresh_paths;
    const NetworkModel::Snapshot& routing_snap =
        RouteThroughputPaths(routing, pairs, 4, t, &routing_ws, &paths);
    const NetworkModel::Snapshot& target_snap =
        target.BuildSnapshot(t, &target_ws.snapshot);
    const NetworkModel::Snapshot& fresh_snap =
        RouteThroughputPaths(target, pairs, 4, t, &fresh_ws, &fresh_paths);
    for (const CapacityModel capacity :
         {CapacityModel::kSharedPerLink, CapacityModel::kSeparateUpDown}) {
      const std::string what =
          "ISL " + std::to_string(capacities[from]) + " -> " +
          std::to_string(capacities[to]) +
          (capacity == CapacityModel::kSeparateUpDown ? " up/down" : " shared");
      const RoutedFlows reused = FlowsFromPaths(target_snap.graph, paths, capacity);
      const RoutedFlows fresh = FlowsFromPaths(fresh_snap.graph, fresh_paths, capacity);
      const ThroughputResult got = ThroughputOf(reused);
      const ThroughputResult want = ThroughputOf(fresh);
      EXPECT_EQ(got.total_gbps, want.total_gbps) << what;
      EXPECT_EQ(got.pairs_routed, want.pairs_routed) << what;
      EXPECT_EQ(got.subflows, want.subflows) << what;
      EXPECT_EQ(flow::MaxMinFairAllocate(reused.net).flow_rate_gbps,
                flow::MaxMinFairAllocate(fresh.net).flow_rate_gbps)
          << what;
      if (capacity == CapacityModel::kSharedPerLink) {
        EXPECT_EQ(got.total_gbps, RunThroughputStudy(target, pairs, 4, t).total_gbps)
            << what;
      }
      // Not vacuous: the ISL capacity moves the total, so allocating over
      // the routing snapshot's graph would not pass.
      EXPECT_NE(got.total_gbps,
                ThroughputOf(FlowsFromPaths(routing_snap.graph, paths, capacity))
                    .total_gbps)
          << what;
    }
  }
}

}  // namespace
}  // namespace leosim::core
