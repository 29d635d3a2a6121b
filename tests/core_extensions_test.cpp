// Tests for the extension studies: routing policies, handover dynamics,
// and the network-level GSO exclusion study.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/gso_network_study.hpp"
#include "core/handover_study.hpp"
#include "core/routing.hpp"
#include "data/cities.hpp"
#include "plain_flows_oracle.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  options.aircraft_scale = 1.0;
  return options;
}

const NetworkModel& HybridModel() {
  static const NetworkModel model(Scenario::Starlink(),
                                  FastOptions(ConnectivityMode::kHybrid),
                                  data::AnchorCities());
  return model;
}

std::vector<CityPair> TestPairs(int count) {
  TrafficMatrixOptions options;
  options.num_pairs = count;
  return SampleCityPairs(data::AnchorCities(), options);
}

TEST(RoutingPolicyTest, Names) {
  EXPECT_EQ(ToString(RoutingPolicy::kDisjointGreedy), "disjoint-greedy");
  EXPECT_EQ(ToString(RoutingPolicy::kDisjointOptimalPair), "optimal-pair");
  EXPECT_EQ(ToString(RoutingPolicy::kMinMaxUtilisation), "min-max-utilisation");
  EXPECT_EQ(ToString(RoutingPolicy::kCongestionAware), "congestion-aware");
}

// The greedy row runs on the per-slot router; it must equal the base
// study and the plain full-graph oracle bit for bit.
TEST(RoutingPolicyTest, GreedyPolicyMatchesBaseStudy) {
  const auto pairs = TestPairs(25);
  const auto base = RunThroughputStudy(HybridModel(), pairs, 2, 0.0);
  const auto policy = RunThroughputWithPolicy(HybridModel(), pairs, 2, 0.0,
                                              RoutingPolicy::kDisjointGreedy);
  auto snap = HybridModel().BuildSnapshot(0.0);
  const PolicyThroughputResult plain = oracle::PlainGreedyThroughput(snap, pairs, 2);
  ASSERT_GT(plain.throughput.subflows, 0);
  EXPECT_EQ(policy.throughput.total_gbps, plain.throughput.total_gbps);
  EXPECT_EQ(policy.throughput.subflows, plain.throughput.subflows);
  EXPECT_EQ(policy.throughput.pairs_routed, plain.throughput.pairs_routed);
  EXPECT_EQ(policy.mean_path_latency_ms, plain.mean_path_latency_ms);
  EXPECT_EQ(base.total_gbps, plain.throughput.total_gbps);
  EXPECT_EQ(base.subflows, plain.throughput.subflows);
}

TEST(RoutingPolicyTest, RoutePairRejectsGreedy) {
  auto snap = HybridModel().BuildSnapshot(0.0);
  RoutingState state;
  EXPECT_THROW((void)RoutePair(snap.graph, snap.CityNode(0), snap.CityNode(40), 1,
                               RoutingPolicy::kDisjointGreedy, state),
               std::invalid_argument);
}

TEST(RoutingPolicyTest, OptimalPairCapsAtTwoPaths) {
  const auto pairs = TestPairs(15);
  const auto result = RunThroughputWithPolicy(HybridModel(), pairs, 4, 0.0,
                                              RoutingPolicy::kDisjointOptimalPair);
  EXPECT_LE(result.throughput.mean_paths_per_pair, 2.0 + 1e-9);
  EXPECT_GT(result.throughput.total_gbps, 0.0);
}

TEST(RoutingPolicyTest, LoadAwarePoliciesTradeLatencyForUtilisation) {
  const auto pairs = TestPairs(25);
  const auto greedy = RunThroughputWithPolicy(HybridModel(), pairs, 2, 0.0,
                                              RoutingPolicy::kDisjointGreedy);
  const auto congestion = RunThroughputWithPolicy(HybridModel(), pairs, 2, 0.0,
                                                  RoutingPolicy::kCongestionAware);
  // The congestion-aware policy routes around hot links, so its paths are
  // at least as long on average.
  EXPECT_GE(congestion.mean_path_latency_ms, greedy.mean_path_latency_ms - 1e-9);
  EXPECT_GT(congestion.throughput.total_gbps, 0.0);
}

TEST(RoutingPolicyTest, MinMaxUtilisationProducesDisjointSubflows) {
  auto snap = HybridModel().BuildSnapshot(0.0);
  RoutingState state;
  const auto paths = RoutePair(snap.graph, snap.CityNode(0), snap.CityNode(50), 3,
                               RoutingPolicy::kMinMaxUtilisation, state);
  ASSERT_GE(paths.size(), 2u);
  std::set<graph::EdgeId> used;
  for (const auto& p : paths) {
    for (const graph::EdgeId e : p.edges) {
      EXPECT_TRUE(used.insert(e).second);
    }
  }
}

TEST(RoutingPolicyTest, StateAccumulatesLoad) {
  auto snap = HybridModel().BuildSnapshot(0.0);
  RoutingState state;
  (void)RoutePair(snap.graph, snap.CityNode(0), snap.CityNode(40), 1,
                  RoutingPolicy::kCongestionAware, state);
  double total = 0.0;
  for (const double l : state.edge_load) {
    total += l;
  }
  EXPECT_GT(total, 0.0);
}

TEST(HandoverStudyTest, PassesLastAFewMinutes) {
  // Paper §2: a satellite is reachable from a GT "for a few minutes".
  const HandoverStats stats =
      RunHandoverStudy(Scenario::Starlink(), {48.86, 2.35, 0.0});  // Paris
  EXPECT_GT(stats.completed_passes, 10);
  EXPECT_GT(stats.mean_pass_duration_sec, 60.0);     // > 1 minute
  EXPECT_LT(stats.mean_pass_duration_sec, 600.0);    // < 10 minutes
  EXPECT_LT(stats.max_pass_duration_sec, 900.0);
  EXPECT_GT(stats.mean_visible_sats, 5.0);           // mid-latitude density
  EXPECT_GT(stats.pass_endings_per_hour, 10.0);
  EXPECT_DOUBLE_EQ(stats.outage_fraction, 0.0);
}

TEST(HandoverStudyTest, PolarTerminalSeesNothing) {
  const HandoverStats stats = RunHandoverStudy(Scenario::Starlink(), {89.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(stats.mean_visible_sats, 0.0);
  EXPECT_DOUBLE_EQ(stats.outage_fraction, 1.0);
  EXPECT_EQ(stats.completed_passes, 0);
}

TEST(HandoverStudyTest, RejectsBadTerminal) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const geo::GeodeticCoord bad[] = {
      {nan, 0.0, 0.0},  {inf, 0.0, 0.0},   {-inf, 0.0, 0.0}, {90.5, 0.0, 0.0},
      {-91.0, 0.0, 0.0}, {45.0, nan, 0.0}, {45.0, inf, 0.0}, {45.0, 0.0, nan},
      {45.0, 0.0, inf},
  };
  for (const geo::GeodeticCoord& terminal : bad) {
    EXPECT_THROW(RunHandoverStudy(Scenario::Starlink(), terminal),
                 std::invalid_argument)
        << terminal.latitude_deg << ", " << terminal.longitude_deg << ", "
        << terminal.altitude_km;
  }
  // The poles and a longitude past 180 stay valid.
  EXPECT_NO_THROW(RunHandoverStudy(Scenario::Starlink(), {90.0, 0.0, 0.0}));
  EXPECT_NO_THROW(RunHandoverStudy(Scenario::Starlink(), {-90.0, 0.0, 0.0}));
  EXPECT_NO_THROW(RunHandoverStudy(Scenario::Starlink(), {10.0, 270.0, 0.0}));
}

TEST(HandoverStudyTest, KuiperPassesLongerThanStarlink) {
  // Higher altitude + similar elevation mask -> larger cones; but Kuiper's
  // 30-deg mask shrinks them. Net effect: both in the minutes range.
  const HandoverStats starlink =
      RunHandoverStudy(Scenario::Starlink(), {40.7, -74.0, 0.0});
  const HandoverStats kuiper = RunHandoverStudy(Scenario::Kuiper(), {40.7, -74.0, 0.0});
  EXPECT_GT(starlink.mean_pass_duration_sec, 30.0);
  EXPECT_GT(kuiper.mean_pass_duration_sec, 30.0);
}

TEST(GsoNetworkStudyTest, FiltersCrossHemispherePairs) {
  const auto& cities = data::AnchorCities();
  const auto pairs = TestPairs(200);
  const auto crossing = CrossHemispherePairs(cities, pairs);
  EXPECT_GT(crossing.size(), 10u);
  EXPECT_LT(crossing.size(), pairs.size());
  for (const CityPair& p : crossing) {
    EXPECT_LT(cities[static_cast<size_t>(p.a)].latitude_deg *
                  cities[static_cast<size_t>(p.b)].latitude_deg,
              0.0);
  }
}

TEST(GsoNetworkStudyTest, BpSuffersMoreFromExclusion) {
  const auto& cities = data::AnchorCities();
  const auto crossing = CrossHemispherePairs(cities, TestPairs(120));
  ASSERT_GE(crossing.size(), 10u);
  const std::vector<CityPair> sample(crossing.begin(),
                                     crossing.begin() + 10);
  const GsoNetworkResult result = RunGsoNetworkStudy(
      Scenario::Starlink(), cities, sample, FastOptions(ConnectivityMode::kBentPipe));
  // Exclusion can only remove links: reachability never improves, RTT
  // never decreases.
  EXPECT_LE(result.bent_pipe.reachable_with_exclusion,
            result.bent_pipe.reachable_without_exclusion);
  EXPECT_LE(result.hybrid.reachable_with_exclusion,
            result.hybrid.reachable_without_exclusion);
  EXPECT_GE(result.bent_pipe.MeanRttInflationMs(), -1e-9);
  EXPECT_GE(result.hybrid.MeanRttInflationMs(), -1e-9);
  // Paper §7: the BP network is hit harder than the hybrid network.
  EXPECT_GE(result.bent_pipe.MeanRttInflationMs(),
            result.hybrid.MeanRttInflationMs() - 1e-9);
}

}  // namespace
}  // namespace leosim::core
