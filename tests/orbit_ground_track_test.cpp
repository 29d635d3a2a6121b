#include "orbit/ground_track.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/attenuation_study.hpp"
#include "core/outage_study.hpp"
#include "geo/geodesic.hpp"
#include "graph/dijkstra.hpp"
#include "orbit/elements.hpp"

namespace leosim::orbit {
namespace {

TEST(PassPredictionTest, SubSatellitePointMovesWestwardBetweenOrbits) {
  // Earth rotation shifts the ascending-node longitude west each orbit.
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const double period = OrbitalPeriodSec(550.0);
  const geo::GeodeticCoord first = geo::EcefToGeodetic(orbit.PositionEcef(0.0));
  const geo::GeodeticCoord next = geo::EcefToGeodetic(orbit.PositionEcef(period));
  double delta = first.longitude_deg - next.longitude_deg;
  while (delta < 0.0) delta += 360.0;
  // ~24 degrees of rotation in ~95.6 minutes.
  EXPECT_NEAR(delta, 24.0, 1.0);
}

TEST(PassPredictionTest, FindsPassWithPlausibleDuration) {
  // A satellite whose orbit passes near the terminal: start it south of
  // the site on the same meridian.
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const geo::GeodeticCoord site{10.0, 15.0, 0.0};
  const auto pass = FindNextPass(orbit, site, 25.0, 0.0, 86400.0);
  ASSERT_TRUE(pass.has_value());
  // Paper §2: passes last "a few minutes" — between ~30 s (grazing) and
  // ~8 minutes (overhead) for these cones.
  EXPECT_GT(pass->DurationSec(), 20.0);
  EXPECT_LT(pass->DurationSec(), 500.0);
  EXPECT_GE(pass->max_elevation_deg, 25.0);
  EXPECT_LE(pass->max_elevation_deg, 90.0);
}

TEST(PassPredictionTest, ElevationAboveThresholdThroughoutPass) {
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const geo::GeodeticCoord site{20.0, 40.0, 0.0};
  const auto pass = FindNextPass(orbit, site, 25.0, 0.0, 86400.0);
  ASSERT_TRUE(pass.has_value());
  const geo::Vec3 gt = geo::GeodeticToEcef(site);
  for (double t = pass->rise_time_sec + 1.0; t < pass->set_time_sec - 1.0;
       t += 5.0) {
    EXPECT_GE(geo::ElevationAngleDeg(gt, orbit.PositionEcef(t)), 25.0 - 0.2)
        << "t=" << t;
  }
  // Just outside the pass the satellite is below threshold.
  EXPECT_LT(geo::ElevationAngleDeg(gt, orbit.PositionEcef(pass->rise_time_sec - 5.0)),
            25.0);
  EXPECT_LT(geo::ElevationAngleDeg(gt, orbit.PositionEcef(pass->set_time_sec + 5.0)),
            25.0);
}

TEST(PassPredictionTest, NoPassForPolarSiteUnderInclinedOrbit) {
  const CircularOrbit orbit({550.0, 53.0, 0.0, 0.0});
  const geo::GeodeticCoord pole{88.0, 0.0, 0.0};
  EXPECT_FALSE(FindNextPass(orbit, pole, 25.0, 0.0, 2.0 * 5760.0).has_value());
}

// The study sweeps kOutageMarginsDb on one snapshot, re-deciding every
// radio link per margin. Each row must equal a freshly built snapshot
// with the links above that margin disabled, routed with plain Dijkstra.
TEST(OutageStudyTest, MonotoneInMarginAndMatchesAFreshSnapshot) {
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 4.0;
  const core::NetworkModel hybrid(core::Scenario::Starlink(), options,
                                  data::AnchorCities());
  core::TrafficMatrixOptions matrix;
  matrix.num_pairs = 20;
  const auto pairs = core::SampleCityPairs(data::AnchorCities(), matrix);

  const auto rows = core::RunOutageStudy(hybrid, pairs);
  ASSERT_EQ(rows.size(), core::kOutageMarginsDb.size());
  // Margins fall row by row: more links lost, fewer pairs reachable.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].links_disabled_fraction, rows[i].links_disabled_fraction);
    EXPECT_GE(rows[i - 1].reachable_fraction, rows[i].reachable_fraction);
  }
  // A 10 dB margin survives essentially all 0.1% weather.
  EXPECT_GT(rows[0].reachable_fraction, 0.95);

  const link::RadioConfig& radio = hybrid.scenario().radio;
  for (size_t m = 0; m < rows.size(); ++m) {
    const double margin = core::kOutageMarginsDb[m];
    core::NetworkModel::Snapshot snap = hybrid.BuildSnapshot(0.0);
    int disabled = 0;
    for (const graph::EdgeId e : snap.radio_edges) {
      const graph::EdgeRecord& rec = snap.graph.Edge(e);
      const graph::NodeId ground = snap.IsSat(rec.a) ? rec.b : rec.a;
      const graph::NodeId sat = snap.IsSat(rec.a) ? rec.a : rec.b;
      const double db = std::max(
          core::RadioLinkAttenuationDb(hybrid, snap, ground, sat, radio.uplink_freq_ghz,
                                       core::kOutageExceedancePct),
          core::RadioLinkAttenuationDb(hybrid, snap, ground, sat, radio.downlink_freq_ghz,
                                       core::kOutageExceedancePct));
      if (db > margin) {
        snap.graph.SetEnabled(e, false);
        ++disabled;
      }
    }
    int reachable = 0;
    double rtt_sum = 0.0;
    for (const core::CityPair& pair : pairs) {
      const auto path =
          graph::ShortestPath(snap.graph, snap.CityNode(pair.a), snap.CityNode(pair.b));
      if (path.has_value()) {
        ++reachable;
        rtt_sum += 2.0 * path->distance;
      }
    }
    EXPECT_EQ(rows[m].margin_db, margin);
    EXPECT_EQ(rows[m].links_disabled_fraction,
              static_cast<double>(disabled) / snap.radio_edges.size())
        << margin << " dB";
    EXPECT_EQ(rows[m].reachable_fraction, static_cast<double>(reachable) / pairs.size())
        << margin << " dB";
    EXPECT_EQ(rows[m].mean_rtt_ms, reachable > 0 ? rtt_sum / reachable : 0.0)
        << margin << " dB";
  }
}

}  // namespace
}  // namespace leosim::orbit
