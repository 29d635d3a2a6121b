#include <gtest/gtest.h>

#include <sstream>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/stats.hpp"
#include "core/traffic_matrix.hpp"
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

}  // namespace
}  // namespace leosim::core
