// Unit coverage for the TemporalSweep driver plus the headline
// determinism guarantee of this layer: sweep-driven studies produce
// byte-identical outputs (timeseries export and result arrays) at any
// thread count. LEOSIM_THREADS is re-read per run, so one process can
// sweep 1/4/13 workers back to back.
#include "core/temporal_sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/multishell_study.hpp"
#include "core/slot_router.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "obs/timeseries.hpp"
#include "orbit/walker.hpp"
#include "scoped_threads.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  options.aircraft_scale = 1.0;
  return options;
}

TEST(TemporalSweepTest, VisitsEverySlotExactlyOnce) {
  const std::vector<double> schedule = {0.0, 10.0, 20.0};
  const TemporalSweep sweep(schedule);
  // Distinct items write distinct entries, so concurrent bodies never
  // conflict — the same discipline the studies follow.
  std::vector<int> visits(3, 0);
  std::vector<double> times(3, -1.0);
  sweep.Run("test", [&](const SweepItem& item, SweepWorkspace&) {
    ++visits[static_cast<size_t>(item.slot)];
    times[static_cast<size_t>(item.slot)] = item.time_sec;
  });
  EXPECT_EQ(visits, std::vector<int>(3, 1));
  EXPECT_EQ(times, schedule);
}

TEST(TemporalSweepTest, EmptyScheduleIsANoOp) {
  const TemporalSweep sweep({});
  int calls = 0;
  sweep.Run("test", [&](const SweepItem&, SweepWorkspace&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(GroupPairsBySourceTest, GroupsInFirstAppearanceOrder) {
  const std::vector<CityPair> pairs = {{2, 5}, {0, 3}, {2, 7}, {0, 9}, {4, 1}};
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].src_city, 2);
  EXPECT_EQ(groups[0].pair_indices, (std::vector<int>{0, 2}));
  EXPECT_EQ(groups[1].src_city, 0);
  EXPECT_EQ(groups[1].pair_indices, (std::vector<int>{1, 3}));
  EXPECT_EQ(groups[2].src_city, 4);
  EXPECT_EQ(groups[2].pair_indices, (std::vector<int>{4}));
}

TEST(CanDeriveBentPipeByMaskingTest, AcceptsModeOnlyDifference) {
  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid),
                            data::AnchorCities());
  EXPECT_TRUE(CanDeriveBentPipeByMasking(bp, hybrid));
  // Order matters: the first model must be the bent-pipe one.
  EXPECT_FALSE(CanDeriveBentPipeByMasking(hybrid, bp));
  EXPECT_FALSE(CanDeriveBentPipeByMasking(bp, bp));
}

TEST(CanDeriveBentPipeByMaskingTest, RejectsAnyOtherOptionDifference) {
  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  NetworkOptions tweaked = FastOptions(ConnectivityMode::kHybrid);
  tweaked.relay_spacing_deg = 5.0;
  const NetworkModel hybrid_tweaked(Scenario::Starlink(), tweaked,
                                    data::AnchorCities());
  std::string mismatch;
  EXPECT_FALSE(CanDeriveBentPipeByMasking(bp, hybrid_tweaked, &mismatch));
  EXPECT_NE(mismatch.find("network options"), std::string::npos) << mismatch;

  NetworkOptions reseeded = FastOptions(ConnectivityMode::kHybrid);
  reseeded.seed += 1;
  const NetworkModel hybrid_reseeded(Scenario::Starlink(), reseeded,
                                     data::AnchorCities());
  EXPECT_FALSE(CanDeriveBentPipeByMasking(bp, hybrid_reseeded, &mismatch));
  EXPECT_NE(mismatch.find("network options"), std::string::npos) << mismatch;
}

std::vector<CityPair> SweepPairs(int count) {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = count;
  return SampleCityPairs(data::AnchorCities(), traffic);
}

SnapshotSchedule SweepSchedule() {
  SnapshotSchedule schedule;
  schedule.duration_sec = 3.0 * 3600.0;
  schedule.step_sec = 1800.0;
  return schedule;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The latency study routes bent-pipe on the hybrid snapshot with its
// ISLs masked off. Its bp series must equal, bit for bit, what routing a
// dedicated kBentPipe model's own snapshot gives, slot for slot — the
// answer a separate bent-pipe build would compute. 200 pairs put the
// slots in the router's landmark (ALT) tier as well.
TEST(LatencyStudyMaskingTest, BentPipeSeriesEqualsDedicatedBentPipeBuild) {
  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid),
                            data::AnchorCities());
  const std::vector<CityPair> pairs = SweepPairs(200);
  const LatencyStudyResult result =
      RunLatencyStudy(bp, hybrid, pairs, SweepSchedule());
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  SweepWorkspace ws;
  ASSERT_EQ(result.bp.size(), pairs.size());
  for (size_t slot = 0; slot < result.snapshot_times.size(); ++slot) {
    for (const NetworkModel* model : {&bp, &hybrid}) {
      const std::vector<PairRttSeries>& series =
          model == &bp ? result.bp : result.hybrid;
      SlotRoutes routes;
      RouteSlotPairs(model->BuildSnapshot(result.snapshot_times[slot], &ws.snapshot),
                     pairs, groups, /*want_paths=*/false, &ws, &routes);
      for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(Bits(series[i].rtt_ms[slot]), Bits(routes.rtt[i]))
            << ToString(model->options().mode) << " slot " << slot << " pair " << i;
      }
    }
  }
}

// A bent-pipe model that is not the hybrid model without ISLs is refused
// with the difference named, before anything is built or routed.
TEST(LatencyStudyMaskingTest, ThrowsWhenBentPipeIsNotMaskedHybrid) {
  const std::vector<data::City>& cities = data::AnchorCities();
  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe), cities);
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid), cities);
  NetworkOptions scaled = FastOptions(ConnectivityMode::kHybrid);
  scaled.aircraft_scale = 0.5;
  const NetworkModel hybrid_scaled(Scenario::Starlink(), scaled, cities);
  const std::vector<data::City> fewer(cities.begin(), cities.end() - 1);
  const NetworkModel hybrid_fewer(Scenario::Starlink(),
                                  FastOptions(ConnectivityMode::kHybrid), fewer);

  const std::vector<CityPair> pairs = {{0, 1}};
  const SnapshotSchedule schedule = SweepSchedule();
  struct Case {
    const char* name;
    const NetworkModel* bp;
    const NetworkModel* hybrid;
    const char* mismatch;
  };
  const Case cases[] = {
      {"swapped modes", &hybrid, &bp, "modes"},
      {"aircraft_scale", &bp, &hybrid_scaled, "network options"},
      {"city list", &bp, &hybrid_fewer, "city lists"},
  };
  for (const Case& c : cases) {
    try {
      RunLatencyStudy(*c.bp, *c.hybrid, pairs, schedule);
      ADD_FAILURE() << c.name << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.mismatch), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

// Removes the snapshot-build profiling series (snapshot.<model>.*) from
// a timeseries export: they sample wall-clock build durations, which no
// amount of scheduling discipline can make reproducible. Every study
// output series stays. Keys are sorted in the export and "churn..." <
// "snapshot...", so a profiling series is never first and each block
// runs from its leading comma to the next ']' at series indent.
std::string StripProfilingSeries(std::string json) {
  while (true) {
    const size_t start = json.find(",\n    \"snapshot.");
    if (start == std::string::npos) {
      break;
    }
    const size_t close = json.find("\n    ]", start);
    if (close == std::string::npos) {
      break;
    }
    json.erase(start, close + 6 - start);
  }
  return json;
}

// Everything a sweep-driven study run produced, flattened to one string
// with full double precision, so "byte-identical at any thread count"
// is one string comparison.
std::string RunSweepStudies(const char* threads) {
  const ScopedThreads scope(threads);
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  recorder.Enable(true);
  recorder.Reset();

  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid),
                            data::AnchorCities());
  const std::vector<CityPair> pairs = SweepPairs(30);
  const SnapshotSchedule schedule = SweepSchedule();

  const LatencyStudyResult latency =
      RunLatencyStudy(bp, hybrid, pairs, schedule);
  const AggregateChurn churn = RunAggregateChurnStudy(hybrid, pairs, schedule);
  const std::vector<ThroughputResult> throughput =
      RunThroughputSweep(hybrid, pairs, 2, schedule);
  const MultishellResult multishell =
      RunMultishellStudy(Scenario::Starlink(), orbit::PolarShell(),
                         data::AnchorCities(), "Brisbane", "Tokyo", schedule);

  std::string out = StripProfilingSeries(recorder.ToJson());
  recorder.Enable(false);
  recorder.Reset();

  char tmp[64];
  const auto append = [&out, &tmp](double v) {
    std::snprintf(tmp, sizeof(tmp), "%.17g\n", v);
    out.append(tmp);
  };
  for (const std::vector<PairRttSeries>* series : {&latency.bp, &latency.hybrid}) {
    for (const PairRttSeries& s : *series) {
      for (const double rtt : s.rtt_ms) {
        append(rtt);
      }
    }
  }
  append(churn.mean_change_rate);
  append(churn.mean_jaccard);
  append(churn.mean_rtt_jitter_ms);
  append(static_cast<double>(churn.pairs_evaluated));
  for (const ThroughputResult& r : throughput) {
    append(r.total_gbps);
    append(static_cast<double>(r.pairs_routed));
    append(static_cast<double>(r.subflows));
  }
  for (size_t s = 0; s < multishell.times_sec.size(); ++s) {
    append(multishell.single_shell_rtt_ms[s]);
    append(multishell.dual_shell_rtt_ms[s]);
  }
  append(static_cast<double>(multishell.improved_snapshots));
  append(multishell.mean_improvement_ms);
  return out;
}

TEST(TemporalSweepDeterminismTest, StudyOutputsIdenticalAtAnyThreadCount) {
  const std::string at1 = RunSweepStudies("1");
  const std::string at4 = RunSweepStudies("4");
  const std::string at13 = RunSweepStudies("13");
  EXPECT_FALSE(at1.empty());
  EXPECT_EQ(at1, at4);
  EXPECT_EQ(at1, at13);
}

}  // namespace
}  // namespace leosim::core
