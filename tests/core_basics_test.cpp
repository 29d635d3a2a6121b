#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attenuation_study.hpp"
#include "core/cli_flags.hpp"
#include "core/failure_study.hpp"
#include "core/fiber_study.hpp"
#include "core/gso_study.hpp"
#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/outage_study.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/stats.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "geo/geodesic.hpp"

namespace leosim::core {
namespace {

TEST(ScenarioTest, StarlinkMatchesFilings) {
  const Scenario s = Scenario::Starlink();
  EXPECT_EQ(s.shell.num_planes, 72);
  EXPECT_EQ(s.shell.sats_per_plane, 22);
  EXPECT_DOUBLE_EQ(s.shell.altitude_km, 550.0);
  EXPECT_DOUBLE_EQ(s.shell.inclination_deg, 53.0);
  EXPECT_DOUBLE_EQ(s.radio.min_elevation_deg, 25.0);
  EXPECT_DOUBLE_EQ(s.radio.capacity_gbps, 20.0);
  EXPECT_DOUBLE_EQ(s.isl.capacity_gbps, 100.0);
}

TEST(ScenarioTest, KuiperMatchesFilings) {
  const Scenario s = Scenario::Kuiper();
  EXPECT_EQ(s.shell.num_planes, 34);
  EXPECT_EQ(s.shell.sats_per_plane, 34);
  EXPECT_DOUBLE_EQ(s.shell.altitude_km, 630.0);
  EXPECT_DOUBLE_EQ(s.shell.inclination_deg, 51.9);
  EXPECT_DOUBLE_EQ(s.radio.min_elevation_deg, 30.0);
}

TEST(StatsTest, PercentileBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(Median(v), 3.0);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 95.0), 9.5);
}

TEST(StatsTest, EmptyThrows) {
  EXPECT_THROW(Percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(Mean({}), std::invalid_argument);
}

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0, 6.0}), 4.0);
}

TEST(StatsTest, CdfMonotoneAndBounded) {
  std::vector<double> v;
  for (int i = 100; i > 0; --i) {
    v.push_back(static_cast<double>(i));
  }
  const auto cdf = EmpiricalCdf(v, 20);
  ASSERT_EQ(cdf.size(), 20u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().first, 100.0);
}

TEST(StatsTest, CdfSmallSample) {
  const auto cdf = EmpiricalCdf({3.0}, 50);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 3.0);
  EXPECT_DOUBLE_EQ(cdf[0].second, 1.0);
}

TEST(ReportTest, TableLaysOutColumns) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22222"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(ReportTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(TrafficMatrixTest, SamplesRequestedCount) {
  TrafficMatrixOptions options;
  options.num_pairs = 200;
  const auto pairs = SampleCityPairs(data::AnchorCities(), options);
  EXPECT_EQ(pairs.size(), 200u);
}

TEST(TrafficMatrixTest, RespectsMinimumDistance) {
  TrafficMatrixOptions options;
  options.num_pairs = 300;
  const auto& cities = data::AnchorCities();
  for (const CityPair& p : SampleCityPairs(cities, options)) {
    EXPECT_GT(geo::GreatCircleDistanceKm(cities[static_cast<size_t>(p.a)].Coord(),
                                         cities[static_cast<size_t>(p.b)].Coord()),
              2000.0);
  }
}

TEST(TrafficMatrixTest, PairsAreDistinctAndOrdered) {
  TrafficMatrixOptions options;
  options.num_pairs = 150;
  const auto pairs = SampleCityPairs(data::AnchorCities(), options);
  std::set<std::pair<int, int>> seen;
  for (const CityPair& p : pairs) {
    EXPECT_LT(p.a, p.b);
    EXPECT_TRUE(seen.insert({p.a, p.b}).second);
  }
}

TEST(TrafficMatrixTest, Deterministic) {
  TrafficMatrixOptions options;
  options.num_pairs = 50;
  const auto a = SampleCityPairs(data::AnchorCities(), options);
  const auto b = SampleCityPairs(data::AnchorCities(), options);
  EXPECT_EQ(a, b);
}

TEST(TrafficMatrixTest, DifferentSeedsDiffer) {
  TrafficMatrixOptions o1;
  o1.num_pairs = 50;
  TrafficMatrixOptions o2 = o1;
  o2.seed = 999;
  EXPECT_NE(SampleCityPairs(data::AnchorCities(), o1),
            SampleCityPairs(data::AnchorCities(), o2));
}

TEST(TrafficMatrixTest, GravitySamplingFavoursMegaMetros) {
  TrafficMatrixOptions options;
  options.num_pairs = 400;
  const auto& cities = data::AnchorCities();
  const auto uniform = SampleCityPairs(cities, options);
  const auto gravity = SampleCityPairsGravity(cities, options);

  const auto mean_pop = [&](const std::vector<CityPair>& pairs) {
    double sum = 0.0;
    for (const CityPair& p : pairs) {
      sum += cities[static_cast<size_t>(p.a)].population_k +
             cities[static_cast<size_t>(p.b)].population_k;
    }
    return sum / (2.0 * pairs.size());
  };
  // Endpoint populations under gravity sampling are far above uniform's.
  EXPECT_GT(mean_pop(gravity), 1.5 * mean_pop(uniform));
}

TEST(TrafficMatrixTest, GravityRespectsDistanceAndUniqueness) {
  TrafficMatrixOptions options;
  options.num_pairs = 200;
  const auto& cities = data::AnchorCities();
  std::set<std::pair<int, int>> seen;
  for (const CityPair& p : SampleCityPairsGravity(cities, options)) {
    EXPECT_LT(p.a, p.b);
    EXPECT_TRUE(seen.insert({p.a, p.b}).second);
    EXPECT_GT(geo::GreatCircleDistanceKm(cities[static_cast<size_t>(p.a)].Coord(),
                                         cities[static_cast<size_t>(p.b)].Coord()),
              2000.0);
  }
}

TEST(TrafficMatrixTest, ImpossibleRequestThrows) {
  // Two nearby cities can never give a >2000 km pair.
  std::vector<data::City> two = {data::FindCity("Paris"), data::FindCity("Lille")};
  TrafficMatrixOptions options;
  options.num_pairs = 1;
  EXPECT_THROW(SampleCityPairs(two, options), std::invalid_argument);
  EXPECT_THROW(SampleCityPairs({data::FindCity("Paris")}, options),
               std::invalid_argument);
  // A negative count, and more pairs than the n(n-1)/2 distinct ones.
  const auto& anchors = data::AnchorCities();
  const int n = static_cast<int>(anchors.size());
  options.num_pairs = -5;
  EXPECT_THROW(SampleCityPairs(anchors, options), std::invalid_argument);
  options.num_pairs = n * (n - 1) / 2 + 1;
  EXPECT_THROW(SampleCityPairs(anchors, options), std::invalid_argument);
}

TEST(CliFlagsTest, ParseIntEdgeTokens) {
  struct Row {
    const char* text;
    bool ok;
    int value;
  };
  const Row rows[] = {
      {"5", true, 5},      {"1", true, 1},     {"100", true, 100},
      {"0", false, 0},     {"101", false, 0},  {"-5", false, 0},
      {"", false, 0},      {" 5", false, 0},   {"5 ", false, 0},
      {"5x", false, 0},    {"+5", false, 0},   {"5.0", false, 0},
      {"1e3", false, 0},   {"abc", false, 0},  {"99999999999", false, 0},
  };
  for (const Row& row : rows) {
    if (row.ok) {
      EXPECT_EQ(ParseInt("--n", row.text, 1, 100), row.value) << row.text;
    } else {
      EXPECT_THROW(ParseInt("--n", row.text, 1, 100), std::invalid_argument)
          << "'" << row.text << "'";
    }
  }
  // The error names the flag, the range and the token.
  try {
    ParseInt("--pairs", "5x", 1, 100);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--pairs: expected an integer in [1, 100], got '5x'");
  }
}

TEST(CliFlagsTest, ParseDoubleEdgeTokens) {
  struct Row {
    const char* text;
    bool ok;
    double value;
  };
  const Row rows[] = {
      {"0.5", true, 0.5},   {"0.1", true, 0.1},     {"90", true, 90.0},
      {"1e1", true, 10.0},  {"-0", false, 0.0},     {"0.0999", false, 0.0},
      {"90.001", false, 0}, {"", false, 0},         {" 5", false, 0},
      {"5x", false, 0},     {"1e400", false, 0},    {"-1e400", false, 0},
      {"nan", false, 0},    {"inf", false, 0},      {"-inf", false, 0},
      {"abc", false, 0},    {".", false, 0},
  };
  for (const Row& row : rows) {
    if (row.ok) {
      EXPECT_EQ(ParseDouble("--spacing", row.text, 0.1, 90.0), row.value)
          << row.text;
    } else {
      EXPECT_THROW(ParseDouble("--spacing", row.text, 0.1, 90.0),
                   std::invalid_argument)
          << "'" << row.text << "'";
    }
  }
  // Non-finite values are rejected even when the range is unbounded.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ParseDouble("--x", "inf", -inf, inf), std::invalid_argument);
  EXPECT_THROW(ParseDouble("--x", "nan", -inf, inf), std::invalid_argument);
  EXPECT_EQ(ParseDouble("--x", "-2.5", -inf, inf), -2.5);
}

TEST(CliFlagsTest, FlagValueMatchesWholeName) {
  EXPECT_EQ(FlagValue("--pairs=5", "--pairs"), "5");
  EXPECT_EQ(FlagValue("--pairs=", "--pairs"), "");
  EXPECT_FALSE(FlagValue("--pairs", "--pairs").has_value());
  EXPECT_FALSE(FlagValue("--pair=5", "--pairs").has_value());
  EXPECT_FALSE(FlagValue("--pairsx=5", "--pairs").has_value());
}

TEST(CliFlagsTest, ObsFlagsTakesOnlyItsOwnFlags) {
  ObsFlags flags;
  EXPECT_TRUE(flags.Take("--progress"));
  EXPECT_TRUE(flags.Take("--progress=0.5"));
  EXPECT_TRUE(flags.Take("--metrics-out=m.json"));
  EXPECT_TRUE(flags.Take("--trace-out=t.json"));
  EXPECT_TRUE(flags.Take("--timeseries-out=ts.json"));
  EXPECT_TRUE(flags.Take("--profile-out=p.collapsed"));
  EXPECT_FALSE(flags.Take("--pairs=5"));
  EXPECT_FALSE(flags.Take("--trace-out"));
  EXPECT_THROW(flags.Take("--progress=abc"), std::invalid_argument);
  EXPECT_THROW(flags.Take("--progress=-1"), std::invalid_argument);
}

TEST(CliFlagsTest, WriteOutputsReportsFailedWrites) {
  EXPECT_EQ(ObsFlags().WriteOutputs(""), 0);  // nothing requested
  ObsFlags flags;
  ASSERT_TRUE(flags.Take("--metrics-out=/nonexistent-dir/metrics.json"));
  EXPECT_EQ(flags.WriteOutputs(""), 1);
}

int ThrowsBadInput(int /*argc*/, char** /*argv*/) {
  throw std::invalid_argument("--n: expected an integer\nin [1, 2]");
}

int ReturnsArgc(int argc, char** /*argv*/) { return argc; }

TEST(CliFlagsTest, RunMainMapsExceptionsToExitTwo) {
  char prog[] = "/some/dir/tool";
  char* argv[] = {prog, nullptr};
  EXPECT_EQ(RunMain(1, argv, ReturnsArgc), 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(RunMain(1, argv, ThrowsBadInput), 2);
  // One line, prefixed with the program's base name.
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tool: --n: expected an integer in [1, 2]\n");
}

// NetworkOptions::Validate rejects each bad field, and the NetworkModel
// constructor calls it before building anything.
TEST(NetworkOptionsTest, ValidateRejectsBadFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* name;
    double NetworkOptions::*field;
    double value;
  };
  const Row rows[] = {
      {"relay_spacing_deg", &NetworkOptions::relay_spacing_deg, nan},
      {"relay_spacing_deg", &NetworkOptions::relay_spacing_deg, inf},
      {"relay_spacing_deg", &NetworkOptions::relay_spacing_deg, 0.0},
      {"relay_spacing_deg", &NetworkOptions::relay_spacing_deg, -1.0},
      {"aircraft_scale", &NetworkOptions::aircraft_scale, nan},
      {"aircraft_scale", &NetworkOptions::aircraft_scale, inf},
      {"aircraft_scale", &NetworkOptions::aircraft_scale, -0.5},
  };
  const std::vector<data::City> cities = data::AnchorCities();
  for (const Row& row : rows) {
    NetworkOptions options;
    options.*row.field = row.value;
    EXPECT_THROW(options.Validate(), std::invalid_argument)
        << row.name << " = " << row.value;
    EXPECT_THROW(NetworkModel(Scenario::Starlink(), options, cities),
                 std::invalid_argument)
        << row.name << " = " << row.value;
  }
  NetworkOptions beams;
  beams.max_gt_links_per_satellite = -1;
  EXPECT_THROW(beams.Validate(), std::invalid_argument);
  EXPECT_THROW(NetworkModel(Scenario::Starlink(), beams, cities),
               std::invalid_argument);

  // Defaults and the edges of each range pass.
  NetworkOptions edges;
  EXPECT_NO_THROW(edges.Validate());
  edges.aircraft_scale = 0.0;
  EXPECT_NO_THROW(edges.Validate());
}

// Scenario::Validate rejects each bad field, and both NetworkModel
// constructors refuse the scenario.
TEST(ScenarioTest, ValidateRejectsBadFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* name;
    void (*apply)(Scenario*, double);
    double value;
  };
  const auto planes = [](Scenario* s, double v) { s->shell.num_planes = static_cast<int>(v); };
  const auto per_plane = [](Scenario* s, double v) {
    s->shell.sats_per_plane = static_cast<int>(v);
  };
  const auto altitude = [](Scenario* s, double v) { s->shell.altitude_km = v; };
  const auto inclination = [](Scenario* s, double v) { s->shell.inclination_deg = v; };
  const auto elevation = [](Scenario* s, double v) { s->radio.min_elevation_deg = v; };
  const auto radio = [](Scenario* s, double v) { s->radio.capacity_gbps = v; };
  const auto isl = [](Scenario* s, double v) { s->isl.capacity_gbps = v; };
  const Row rows[] = {
      {"num_planes", planes, 0.0},
      {"num_planes", planes, -3.0},
      {"sats_per_plane", per_plane, 0.0},
      {"sats_per_plane", per_plane, -1.0},
      {"altitude_km", altitude, nan},
      {"altitude_km", altitude, inf},
      {"altitude_km", altitude, 0.0},
      {"altitude_km", altitude, -550.0},
      {"inclination_deg", inclination, nan},
      {"min_elevation_deg", elevation, nan},
      {"min_elevation_deg", elevation, -1.0},
      {"min_elevation_deg", elevation, 90.5},
      {"radio capacity_gbps", radio, nan},
      {"radio capacity_gbps", radio, 0.0},
      {"radio capacity_gbps", radio, -20.0},
      {"isl capacity_gbps", isl, nan},
      {"isl capacity_gbps", isl, 0.0},
      {"isl capacity_gbps", isl, -100.0},
  };
  const std::vector<data::City> cities = data::AnchorCities();
  for (const Row& row : rows) {
    Scenario scenario = Scenario::Starlink();
    row.apply(&scenario, row.value);
    EXPECT_THROW(scenario.Validate(), std::invalid_argument)
        << row.name << " = " << row.value;
    EXPECT_THROW(NetworkModel(scenario, NetworkOptions{}, cities), std::invalid_argument)
        << row.name << " = " << row.value;
    EXPECT_THROW(NetworkModel(scenario, NetworkOptions{}, cities, {}),
                 std::invalid_argument)
        << row.name << " = " << row.value;
  }

  // Both shipped scenarios and the edges of each range pass.
  EXPECT_NO_THROW(Scenario::Starlink().Validate());
  EXPECT_NO_THROW(Scenario::Kuiper().Validate());
  Scenario edges = Scenario::Starlink();
  edges.shell.num_planes = 1;
  edges.shell.sats_per_plane = 1;
  edges.shell.inclination_deg = -53.0;
  edges.radio.min_elevation_deg = 0.0;
  EXPECT_NO_THROW(edges.Validate());
  edges.radio.min_elevation_deg = 90.0;
  EXPECT_NO_THROW(edges.Validate());
}

// The failure and outage studies reject an empty pair list at entry,
// which would otherwise give a NaN reachable fraction.
TEST(StudyOptionsTest, FailureAndOutageRejectNoPairs) {
  NetworkOptions isl_only;
  isl_only.mode = ConnectivityMode::kIslOnly;
  const NetworkModel model(Scenario::Starlink(), isl_only, data::AnchorCities());
  EXPECT_THROW(RunFailureStudy(model, {}), std::invalid_argument);
  EXPECT_THROW(RunOutageStudy(model, {}), std::invalid_argument);
}

// The attenuation studies check each exceedance at entry, before building
// or routing anything: one outside (0, 100) would be clamped silently by
// the ITU-R model, and a NaN would reach it as a NaN attenuation.
TEST(StudyOptionsTest, AttenuationRejectsBadExceedance) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  NetworkOptions isl_only;
  isl_only.mode = ConnectivityMode::kIslOnly;
  const NetworkModel model(Scenario::Starlink(), isl_only, data::AnchorCities());
  const std::vector<CityPair> pairs = {{0, 1}};

  for (const double p : {nan, 0.0, -0.5, 100.0, inf}) {
    EXPECT_THROW(RunAttenuationStudy(model, model, pairs, 0.0, p), std::invalid_argument)
        << "exceedance " << p;
    // Each exceedance of a Fig. 8 sweep is checked, not only the first.
    EXPECT_THROW(TracePairAttenuation(model, model, "Paris", "London", 0.0, {0.5, p}),
                 std::invalid_argument)
        << "exceedance " << p;
  }

  // The edges of the range pass.
  EXPECT_NO_THROW(RunAttenuationStudy(model, model, pairs, 0.0, 1e-3));
  EXPECT_NO_THROW(TracePairAttenuation(model, model, "Paris", "London", 0.0, {1e-3, 99.9}));
}

// The GSO arc study checks its separation and every latitude before it
// samples anything: a NaN separation would exclude nothing and a NaN
// latitude would print a nan row.
TEST(StudyOptionsTest, GsoArcRejectsBadSeparationAndLatitude) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double separation : {nan, inf, -inf, -1.0, 180.5}) {
    EXPECT_THROW(RunGsoArcStudy({0.0}, separation), std::invalid_argument)
        << "separation " << separation;
  }
  for (const double lat : {nan, inf, -inf, 90.5, -91.0}) {
    EXPECT_THROW(RunGsoArcStudy({0.0, lat}, 22.0), std::invalid_argument)
        << "latitude " << lat;
  }
  // The edges pass: no separation excludes nothing, 180 excludes every
  // direction that sees the arc, and the poles see none of it.
  const auto none = RunGsoArcStudy({0.0}, 0.0);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].excluded_sky_fraction, 0.0);
  const auto all = RunGsoArcStudy({0.0}, 180.0);
  EXPECT_EQ(all[0].excluded_sky_fraction, 1.0);
  const auto poles = RunGsoArcStudy({-90.0, 90.0}, 22.0);
  ASSERT_EQ(poles.size(), 2u);
  EXPECT_EQ(poles[0].excluded_sky_fraction, 0.0);
  EXPECT_EQ(poles[1].excluded_sky_fraction, 0.0);
}

// SnapshotSchedule and the pair samplers reject each bad field, and each
// study or sampler checks at entry, before any loop: a zero, negative,
// NaN or vanishing step, or an infinite duration, never ends
// `for (t = 0; t <= duration; t += step)`.
TEST(StudyOptionsTest, ScheduleAndSamplersRejectBadFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = 1e-20;  // rounds away when added to the duration

  struct StepRow {
    const char* name;
    double duration_sec;
    double step_sec;
  };
  const StepRow step_rows[] = {
      {"step 0", 3600.0, 0.0},      {"step < 0", 3600.0, -10.0},
      {"step nan", 3600.0, nan},    {"step inf", 3600.0, inf},
      {"step tiny", 3600.0, tiny},  {"duration inf", inf, 60.0},
      {"duration nan", nan, 60.0},
  };
  for (const StepRow& row : step_rows) {
    const SnapshotSchedule schedule{row.duration_sec, row.step_sec};
    EXPECT_THROW(schedule.Validate(), std::invalid_argument) << row.name;
    EXPECT_THROW(schedule.Times(), std::invalid_argument) << row.name;
    EXPECT_THROW(RunFiberStudy(Scenario::Starlink(), data::AnchorCities(), schedule),
                 std::invalid_argument)
        << row.name;
  }

  TrafficMatrixOptions negative;
  negative.num_pairs = -1;
  EXPECT_THROW(negative.Validate(), std::invalid_argument);
  EXPECT_THROW(SampleCityPairs(data::AnchorCities(), negative), std::invalid_argument);
  EXPECT_THROW(SampleCityPairsGravity(data::AnchorCities(), negative),
               std::invalid_argument);

  // The defaults and the edges of each range pass.
  EXPECT_NO_THROW(TrafficMatrixOptions{}.Validate());
  EXPECT_NO_THROW(SnapshotSchedule{}.Validate());
  TrafficMatrixOptions traffic_edges;
  traffic_edges.num_pairs = 0;
  EXPECT_NO_THROW(traffic_edges.Validate());
}

}  // namespace
}  // namespace leosim::core
