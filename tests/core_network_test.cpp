#include "core/network_builder.hpp"

#include <gtest/gtest.h>

#include "graph/dijkstra.hpp"
#include "link/radio.hpp"

namespace leosim::core {
namespace {

// Small but realistic configuration: all anchor cities, a coarse relay
// grid, thinned aircraft.
NetworkOptions FastOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  options.aircraft_scale = 1.0;
  return options;
}

const NetworkModel& BpModel() {
  static const NetworkModel model(Scenario::Starlink(),
                                  FastOptions(ConnectivityMode::kBentPipe),
                                  data::AnchorCities());
  return model;
}

const NetworkModel& HybridModel() {
  static const NetworkModel model(Scenario::Starlink(),
                                  FastOptions(ConnectivityMode::kHybrid),
                                  data::AnchorCities());
  return model;
}

TEST(NetworkModelTest, RejectsEmptyCityList) {
  EXPECT_THROW(
      NetworkModel(Scenario::Starlink(), FastOptions(ConnectivityMode::kHybrid), {}),
      std::invalid_argument);
}

TEST(NetworkModelTest, SnapshotNodeLayout) {
  const auto snap = HybridModel().BuildSnapshot(0.0);
  EXPECT_EQ(snap.num_sats, 72 * 22);
  EXPECT_EQ(snap.num_cities, static_cast<int>(data::AnchorCities().size()));
  EXPECT_GT(snap.num_relays, 100);
  EXPECT_GT(snap.num_aircraft, 20);
  EXPECT_EQ(snap.NumNodes(),
            snap.num_sats + snap.num_cities + snap.num_relays + snap.num_aircraft);
  EXPECT_EQ(snap.graph.NumNodes(), snap.NumNodes());
  // Node classification helpers agree with the layout.
  EXPECT_TRUE(snap.IsSat(0));
  EXPECT_TRUE(snap.IsCity(snap.CityNode(0)));
  EXPECT_TRUE(snap.IsRelay(snap.RelayNode(0)));
  EXPECT_TRUE(snap.IsAircraft(snap.AircraftNode(0)));
}

TEST(NetworkModelTest, BentPipeHasNoIsls) {
  const auto snap = BpModel().BuildSnapshot(0.0);
  EXPECT_TRUE(snap.isl_edges.empty());
  EXPECT_GT(snap.radio_edges.size(), 1000u);
}

TEST(NetworkModelTest, HybridHasPlusGridIsls) {
  const auto snap = HybridModel().BuildSnapshot(0.0);
  EXPECT_EQ(snap.isl_edges.size(), static_cast<size_t>(2 * 72 * 22));
  // ISL edges connect satellites only.
  for (const graph::EdgeId e : snap.isl_edges) {
    const graph::EdgeRecord& rec = snap.graph.Edge(e);
    EXPECT_TRUE(snap.IsSat(rec.a));
    EXPECT_TRUE(snap.IsSat(rec.b));
    EXPECT_DOUBLE_EQ(rec.capacity, 100.0);
  }
}

TEST(NetworkModelTest, RadioEdgesConnectGroundToSat) {
  const auto snap = HybridModel().BuildSnapshot(900.0);
  for (const graph::EdgeId e : snap.radio_edges) {
    const graph::EdgeRecord& rec = snap.graph.Edge(e);
    EXPECT_TRUE(snap.IsSat(rec.a) != snap.IsSat(rec.b));
    EXPECT_DOUBLE_EQ(rec.capacity, 20.0);
    // One-way latency of a 550 km-altitude link: between 1.8 ms (zenith)
    // and ~5 ms (slant at 25 deg elevation).
    EXPECT_GT(rec.weight, 1.7);
    EXPECT_LT(rec.weight, 5.5);
  }
}

TEST(NetworkModelTest, IslOnlyModeSkipsRelaysAndAircraft) {
  const NetworkModel model(Scenario::Starlink(),
                           FastOptions(ConnectivityMode::kIslOnly),
                           data::AnchorCities());
  const auto snap = model.BuildSnapshot(0.0);
  EXPECT_EQ(snap.num_relays, 0);
  EXPECT_EQ(snap.num_aircraft, 0);
  EXPECT_FALSE(snap.isl_edges.empty());
}

TEST(NetworkModelTest, CapacityOverrides) {
  Scenario scenario = Scenario::Starlink();
  scenario.radio.capacity_gbps = 7.0;
  scenario.isl.capacity_gbps = 55.0;
  const NetworkModel model(scenario, FastOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  EXPECT_DOUBLE_EQ(model.scenario().radio.capacity_gbps, 7.0);
  EXPECT_DOUBLE_EQ(model.scenario().isl.capacity_gbps, 55.0);
  const auto snap = model.BuildSnapshot(0.0);
  EXPECT_DOUBLE_EQ(snap.graph.Edge(snap.radio_edges[0]).capacity, 7.0);
  EXPECT_DOUBLE_EQ(snap.graph.Edge(snap.isl_edges[0]).capacity, 55.0);
}

TEST(NetworkModelTest, GroundNodeCoordRoundTrips) {
  const NetworkModel& model = HybridModel();
  const auto snap = model.BuildSnapshot(1800.0);
  const geo::GeodeticCoord city0 = model.GroundNodeCoord(snap, snap.CityNode(0));
  EXPECT_DOUBLE_EQ(city0.latitude_deg, model.cities()[0].latitude_deg);
  const geo::GeodeticCoord relay0 = model.GroundNodeCoord(snap, snap.RelayNode(0));
  EXPECT_DOUBLE_EQ(relay0.latitude_deg, model.relays()[0].latitude_deg);
  if (snap.num_aircraft > 0) {
    const geo::GeodeticCoord air0 =
        model.GroundNodeCoord(snap, snap.AircraftNode(0));
    EXPECT_DOUBLE_EQ(air0.altitude_km, 11.0);
  }
  EXPECT_THROW(model.GroundNodeCoord(snap, 0), std::invalid_argument);
}

TEST(NetworkModelTest, AircraftMoveBetweenSnapshots) {
  const NetworkModel& model = HybridModel();
  const auto a = model.BuildSnapshot(0.0);
  const auto b = model.BuildSnapshot(3600.0);
  EXPECT_NE(a.num_aircraft, 0);
  EXPECT_NE(b.num_aircraft, 0);
  // The over-water population changes over an hour.
  EXPECT_NE(a.num_aircraft, b.num_aircraft);
}

TEST(NetworkModelTest, HybridConnectsAnyTwoCities) {
  // With ISLs, the constellation is one connected component, so any two
  // mid-latitude cities are connected.
  const auto snap = HybridModel().BuildSnapshot(2700.0);
  const auto path = graph::ShortestPath(snap.graph, snap.CityNode(0),
                                        snap.CityNode(10));
  EXPECT_TRUE(path.has_value());
}

TEST(NetworkModelTest, HybridNeverSlowerThanBentPipe) {
  const auto bp_snap = BpModel().BuildSnapshot(0.0);
  const auto hy_snap = HybridModel().BuildSnapshot(0.0);
  for (int i : {1, 5, 20, 60}) {
    const auto bp = graph::ShortestPath(bp_snap.graph, bp_snap.CityNode(0),
                                        bp_snap.CityNode(i));
    const auto hy = graph::ShortestPath(hy_snap.graph, hy_snap.CityNode(0),
                                        hy_snap.CityNode(i));
    ASSERT_TRUE(hy.has_value());
    if (bp.has_value()) {
      EXPECT_LE(hy->distance, bp->distance + 1e-9) << "city index " << i;
    }
  }
}

TEST(NetworkModelTest, BeamBudgetCapsPerSatelliteLinks) {
  NetworkOptions options = FastOptions(ConnectivityMode::kBentPipe);
  options.max_gt_links_per_satellite = 4;
  const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
  const auto snap = model.BuildSnapshot(0.0);
  std::vector<int> per_sat(static_cast<size_t>(snap.num_sats), 0);
  for (const graph::EdgeId e : snap.radio_edges) {
    const graph::EdgeRecord& rec = snap.graph.Edge(e);
    const graph::NodeId sat = snap.IsSat(rec.a) ? rec.a : rec.b;
    ++per_sat[static_cast<size_t>(sat)];
  }
  for (const int count : per_sat) {
    EXPECT_LE(count, 4);
  }
}

TEST(NetworkModelTest, BeamBudgetKeepsClosestTerminals) {
  // With budget 1, the single kept link must be the lowest-latency
  // candidate, so the total radio edge count equals the number of
  // satellites with at least one visible terminal.
  NetworkOptions unlimited = FastOptions(ConnectivityMode::kBentPipe);
  NetworkOptions budget1 = unlimited;
  budget1.max_gt_links_per_satellite = 1;
  const NetworkModel full(Scenario::Starlink(), unlimited, data::AnchorCities());
  const NetworkModel capped(Scenario::Starlink(), budget1, data::AnchorCities());
  const auto full_snap = full.BuildSnapshot(0.0);
  const auto capped_snap = capped.BuildSnapshot(0.0);
  EXPECT_LT(capped_snap.radio_edges.size(), full_snap.radio_edges.size());
  // Each capped edge's latency is the minimum over that satellite's
  // candidates in the unlimited snapshot.
  std::vector<double> min_latency(static_cast<size_t>(full_snap.num_sats), 1e18);
  for (const graph::EdgeId e : full_snap.radio_edges) {
    const graph::EdgeRecord& rec = full_snap.graph.Edge(e);
    const graph::NodeId sat = full_snap.IsSat(rec.a) ? rec.a : rec.b;
    min_latency[static_cast<size_t>(sat)] =
        std::min(min_latency[static_cast<size_t>(sat)], rec.weight);
  }
  for (const graph::EdgeId e : capped_snap.radio_edges) {
    const graph::EdgeRecord& rec = capped_snap.graph.Edge(e);
    const graph::NodeId sat = capped_snap.IsSat(rec.a) ? rec.a : rec.b;
    EXPECT_NEAR(rec.weight, min_latency[static_cast<size_t>(sat)], 1e-9);
  }
}

TEST(NetworkModelTest, GsoExclusionOnlyRemovesRadioLinks) {
  NetworkOptions options = FastOptions(ConnectivityMode::kIslOnly);
  const NetworkModel plain(Scenario::Starlink(), options, data::AnchorCities());
  options.apply_gso_exclusion = true;
  const NetworkModel excluded(Scenario::Starlink(), options, data::AnchorCities());
  const auto plain_snap = plain.BuildSnapshot(0.0);
  const auto excl_snap = excluded.BuildSnapshot(0.0);
  EXPECT_LT(excl_snap.radio_edges.size(), plain_snap.radio_edges.size());
  EXPECT_EQ(excl_snap.isl_edges.size(), plain_snap.isl_edges.size());
  // Equatorial cities lose most links; check that some links survive
  // elsewhere (the network is not destroyed).
  EXPECT_GT(excl_snap.radio_edges.size(), plain_snap.radio_edges.size() / 4);
}

// The router's relay contraction (graph/relay_contraction.hpp) needs
// every relay and aircraft node to be a pure transit hop between
// satellites: no edge to a city, a relay or an aircraft. The builder's
// only edges are GT-satellite links and ISLs, in every variant.
TEST(NetworkModelTest, RelaysAndAircraftNeighbourOnlySatellites) {
  struct Variant {
    const char* name;
    ConnectivityMode mode;
    bool gso;
    int beams;
  };
  const Variant variants[] = {
      {"bent-pipe", ConnectivityMode::kBentPipe, false, 0},
      {"hybrid", ConnectivityMode::kHybrid, false, 0},
      {"hybrid, GSO-excluded", ConnectivityMode::kHybrid, true, 0},
      {"bent-pipe, 4 beams", ConnectivityMode::kBentPipe, false, 4},
  };
  for (const Variant& v : variants) {
    NetworkOptions options = FastOptions(v.mode);
    options.apply_gso_exclusion = v.gso;
    options.max_gt_links_per_satellite = v.beams;
    const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
    for (const double t : {0.0, 2700.0}) {
      const auto snap = model.BuildSnapshot(t);
      ASSERT_GT(snap.num_relays, 0) << v.name;
      ASSERT_GT(snap.num_aircraft, 0) << v.name;
      int transit_edges = 0;
      for (graph::NodeId n = snap.RelayNode(0); n < snap.NumNodes(); ++n) {
        for (const graph::HalfEdge& half : snap.graph.Neighbours(n)) {
          ASSERT_TRUE(snap.IsSat(half.to))
              << v.name << " t=" << t << ": node " << n << " links to " << half.to;
          ++transit_edges;
        }
      }
      EXPECT_GT(transit_edges, 0) << v.name;
    }
  }
}

TEST(NetworkModelTest, ModeNames) {
  EXPECT_EQ(ToString(ConnectivityMode::kBentPipe), "bent-pipe");
  EXPECT_EQ(ToString(ConnectivityMode::kHybrid), "hybrid");
  EXPECT_EQ(ToString(ConnectivityMode::kIslOnly), "isl-only");
}

}  // namespace
}  // namespace leosim::core
