#include "flow/temporal.hpp"

#include <gtest/gtest.h>

namespace leosim::flow {
namespace {

// One flow of a test workload: its arrival, volume and path.
struct Spec {
  double start_time_sec;
  double volume_gbit;
  std::vector<LinkId> path;
};

// Builds a network with links of the given capacities and one flow per
// spec, and simulates it.
TemporalResult Simulate(const std::vector<double>& capacities,
                        const std::vector<Spec>& specs) {
  FlowNetwork net;
  for (const double cap : capacities) {
    net.AddLink(cap);
  }
  std::vector<TemporalFlow> flows;
  for (const Spec& spec : specs) {
    net.AddFlow(spec.path);
    flows.push_back({spec.start_time_sec, spec.volume_gbit});
  }
  return SimulateTemporal(net, flows);
}

TEST(TemporalTest, SingleFlowDrainsAtLinkRate) {
  // One 10 Gbps link; 50 Gbit -> 5 s.
  const TemporalResult result = Simulate({10.0}, {{0.0, 50.0, {0}}});
  ASSERT_EQ(result.completed, 1);
  EXPECT_TRUE(result.outcomes[0].completed);
  EXPECT_NEAR(result.outcomes[0].completion_time_sec, 5.0, 1e-6);
  EXPECT_NEAR(result.makespan_sec, 5.0, 1e-6);
}

TEST(TemporalTest, TwoEqualFlowsShareThenNothing) {
  const TemporalResult result =
      Simulate({10.0}, {{0.0, 50.0, {0}}, {0.0, 50.0, {0}}});
  // Both at 5 Gbps -> both complete at t=10.
  EXPECT_NEAR(result.outcomes[0].completion_time_sec, 10.0, 1e-6);
  EXPECT_NEAR(result.outcomes[1].completion_time_sec, 10.0, 1e-6);
}

TEST(TemporalTest, ShortFlowFinishesThenLongSpeedsUp) {
  const TemporalResult result = Simulate({10.0}, {
      {0.0, 10.0, {0}},   // short
      {0.0, 100.0, {0}},  // long
  });
  // Phase 1: both at 5 Gbps; short (10 Gbit) completes at t=2 with long
  // having sent 10. Phase 2: long at 10 Gbps drains 90 Gbit in 9 s -> t=11.
  EXPECT_NEAR(result.outcomes[0].completion_time_sec, 2.0, 1e-6);
  EXPECT_NEAR(result.outcomes[1].completion_time_sec, 11.0, 1e-6);
}

TEST(TemporalTest, LateArrivalSlowsExistingFlow) {
  const TemporalResult result = Simulate({10.0}, {
      {0.0, 60.0, {0}},  // alone until t=2
      {2.0, 20.0, {0}},
  });
  // Flow 0: 20 Gbit sent by t=2 (rate 10); then both at 5. Flow 1 drains
  // 20 Gbit at 5 Gbps -> completes t=6; flow 0 sent 20+20=40 by t=6, then
  // 20 Gbit left at 10 Gbps -> t=8.
  EXPECT_NEAR(result.outcomes[1].completion_time_sec, 6.0, 1e-6);
  EXPECT_NEAR(result.outcomes[0].completion_time_sec, 8.0, 1e-6);
}

TEST(TemporalTest, IdleGapBetweenFlows) {
  const TemporalResult result = Simulate({10.0}, {
      {0.0, 10.0, {0}},    // done at t=1
      {100.0, 10.0, {0}},  // arrives much later
  });
  EXPECT_NEAR(result.outcomes[0].completion_time_sec, 1.0, 1e-6);
  EXPECT_NEAR(result.outcomes[1].completion_time_sec, 101.0, 1e-6);
  EXPECT_EQ(result.completed, 2);
}

TEST(TemporalTest, BottleneckCascade) {
  // The classic two-link example, now with volumes: link A (0) cap 10
  // shared by f1 (A only) and f2 (A+B), link B (1) cap 4 shared by f2
  // and f3 (B only).
  const TemporalResult result = Simulate({10.0, 4.0}, {
      {0.0, 80.0, {0}},     // rate 8 initially
      {0.0, 20.0, {0, 1}},  // rate 2
      {0.0, 20.0, {1}},     // rate 2
  });
  // Phase 1 rates (8,2,2) hold until f1 drains at t=10 (f2,f3 have 0 left
  // too at t=10: 20-2*10=0). All three complete at t=10.
  EXPECT_NEAR(result.outcomes[0].completion_time_sec, 10.0, 1e-6);
  EXPECT_NEAR(result.outcomes[1].completion_time_sec, 10.0, 1e-6);
  EXPECT_NEAR(result.outcomes[2].completion_time_sec, 10.0, 1e-6);
}

TEST(TemporalTest, StarvedFlowReported) {
  const TemporalResult result = Simulate({0.0}, {{0.0, 10.0, {0}}});  // dead link
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.starved, 1);
  EXPECT_FALSE(result.outcomes[0].completed);
}

TEST(TemporalTest, EmptyPathFlowStarves) {
  const TemporalResult result = Simulate({10.0}, {{0.0, 10.0, {}}});
  EXPECT_EQ(result.starved, 1);
}

TEST(TemporalTest, RejectsInvalidInput) {
  FlowNetwork net;
  EXPECT_THROW(net.AddLink(-1.0), std::invalid_argument);
  EXPECT_THROW(net.AddFlow({5}), std::out_of_range);
  net.AddFlow({});
  EXPECT_THROW(SimulateTemporal(net, {{0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(SimulateTemporal(net, {}), std::invalid_argument);
  EXPECT_THROW(SimulateTemporal(net, {{0.0, 1.0}, {0.0, 1.0}}),
               std::invalid_argument);
}

TEST(TemporalTest, EmptySimulation) {
  const TemporalResult result = SimulateTemporal(FlowNetwork{}, {});
  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.starved, 0);
}

// Property: with n equal flows on one link, each completes at
// n * volume / capacity, regardless of n (perfect fairness).
class TemporalFairnessTest : public ::testing::TestWithParam<int> {};

TEST_P(TemporalFairnessTest, EqualFlowsCompleteTogethers) {
  const int n = GetParam();
  const std::vector<Spec> specs(static_cast<size_t>(n), {0.0, 16.0, {0}});
  const TemporalResult result = Simulate({8.0}, specs);
  const double expected = n * 16.0 / 8.0;
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(result.outcomes[static_cast<size_t>(i)].completion_time_sec,
                expected, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, TemporalFairnessTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// Property: total volume conservation — sum of volumes equals capacity
// integral actually used; proxy: last completion >= total_volume/capacity.
TEST(TemporalTest, MakespanBoundedByWorkConservation) {
  std::vector<Spec> specs;
  double total = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double volume = 5.0 + i;
    specs.push_back({static_cast<double>(i), volume, {0}});
    total += volume;
  }
  const TemporalResult result = Simulate({5.0}, specs);
  EXPECT_EQ(result.completed, 10);
  // The link is busy from t=0, so makespan >= total work / capacity.
  EXPECT_GE(result.makespan_sec, total / 5.0 - 1e-6);
  // And can't exceed last arrival + all work at full rate.
  EXPECT_LE(result.makespan_sec, 9.0 + total / 5.0 + 1e-6);
}

}  // namespace
}  // namespace leosim::flow
