// The routed-flow builder (core::RouteFlows) against the network every
// flow workload used to build (plain_flows_oracle.hpp): one flow link
// per graph edge (two under separate up/down capacities) and one flow
// per plain KEdgeDisjointShortestPaths path, in pair order. On bent-pipe
// and hybrid snapshots at two times, for k = 1 and 4 and both capacity
// models, the builder's network must be that network restricted to the
// links some flow crosses, numbered in the same order, and its max-min
// rates, weighted max-min rates and temporal outcomes must equal the
// all-edges network's bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network_builder.hpp"
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

TEST(RouteFlowsTest, CompactedNetworkAllocatesLikeTheAllEdgesOne) {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 100;
  const std::vector<CityPair> pairs = SampleCityPairs(data::AnchorCities(), traffic);
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
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
        for (const CapacityModel capacity :
             {CapacityModel::kSharedPerLink, CapacityModel::kSeparateUpDown}) {
          const bool directional = capacity == CapacityModel::kSeparateUpDown;
          const std::string what = std::string(ToString(mode)) + " t=" +
                                   std::to_string(t) + " k=" + std::to_string(k) +
                                   (directional ? " up/down" : " shared");
          const oracle::AllEdges full =
              oracle::BuildAllEdges(snap, pairs, k, directional);
          const RoutedFlows routed = RouteFlows(snap, pairs, groups, k, capacity, &ws);
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

TEST(RouteFlowsTest, RejectsPathCountBelowOne) {
  NetworkOptions options;
  options.relay_spacing_deg = 4.0;
  const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(0.0, &ws.snapshot);
  const std::vector<CityPair> pairs = {{0, 1}};
  EXPECT_THROW(RouteFlows(snap, pairs, GroupPairsBySource(pairs), 0,
                          CapacityModel::kSharedPerLink, &ws),
               std::invalid_argument);
}

}  // namespace
}  // namespace leosim::core
