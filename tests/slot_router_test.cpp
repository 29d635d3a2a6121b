// Property tests for the per-slot router (core/slot_router.hpp). It
// routes on a relay contraction of the snapshot graph, and its tiers are
// pure accelerations: on a hybrid snapshot, on the same snapshot with
// its ISL edges masked (the latency study's bent-pipe view) and on the
// failure-masked, outage-masked and ISL-only graphs of the other
// studies, the ALT tier, the Euclidean tier and plain
// graph::ShortestPath on the full graph must agree bit for bit on every
// pair's RTT and node chain in path order, exact ties included (the
// bench-default configuration's t = 0 bent-pipe view holds one, and a
// hand-built graph holds both kinds of relay tie). The bent-pipe view's
// contraction, derived from the hybrid one by dropping the ISLs' direct
// arcs, must equal a fresh build arc for arc. Both
// sides of kAltMinQueries are reached by routing the same pairs either
// in one call or in chunks smaller than the break-even.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "data/city_catalog.hpp"
#include "geo/geodesic.hpp"
#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "graph/relay_contraction.hpp"
#include "itur/slant_path.hpp"
#include "obs/metrics.hpp"
#include "orbit/walker.hpp"
#include "scoped_threads.hpp"

namespace leosim::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Fade margin (dB) of the outage-masked snapshot: radio links whose
// 0.1%-exceedance up-link attenuation exceeds it are disabled.
constexpr double kOutageMarginDb = 4.0;

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

NetworkOptions Options(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  return options;
}

const NetworkModel& HybridModel() {
  static const NetworkModel model(Scenario::Starlink(),
                                  Options(ConnectivityMode::kHybrid),
                                  data::AnchorCities());
  return model;
}

const NetworkModel& BentPipeModel() {
  static const NetworkModel model(Scenario::Starlink(),
                                  Options(ConnectivityMode::kBentPipe),
                                  data::AnchorCities());
  return model;
}

// Enough pairs that the reachable count clears kAltMinQueries even under
// bent-pipe connectivity.
std::vector<CityPair> Pairs() {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = static_cast<int>(3 * kAltMinQueries);
  return SampleCityPairs(data::AnchorCities(), traffic);
}

// Reference answers: one plain Dijkstra per pair, with each path's node
// chain in path order (empty if unreachable).
struct DijkstraRoutes {
  std::vector<double> rtt;
  std::vector<std::vector<graph::NodeId>> nodes;
};

DijkstraRoutes DijkstraReference(const NetworkModel::Snapshot& snap,
                                 const std::vector<CityPair>& pairs) {
  graph::DijkstraWorkspace ws;
  DijkstraRoutes ref;
  for (const CityPair& p : pairs) {
    const auto path = graph::ShortestPath(snap.graph, snap.CityNode(p.a),
                                          snap.CityNode(p.b), ws);
    ref.rtt.push_back(path.has_value() ? 2.0 * path->distance : kInf);
    ref.nodes.emplace_back();
    if (path.has_value()) {
      ref.nodes.back() = path->nodes;
    }
  }
  return ref;
}

std::vector<double> DijkstraRtts(const NetworkModel::Snapshot& snap,
                                 const std::vector<CityPair>& pairs) {
  return DijkstraReference(snap, pairs).rtt;
}

uint64_t TieFallbacks() {
  return obs::MetricsRegistry::Global()
      .GetCounter("dijkstra.astar_tie_fallbacks")
      .Value();
}

uint64_t ContractTieFallbacks() {
  return obs::MetricsRegistry::Global()
      .GetCounter("route.contract.tie_fallbacks")
      .Value();
}

size_t ReachableCount(const NetworkModel::Snapshot& snap,
                      const std::vector<CityPair>& pairs) {
  const graph::Components components = graph::ConnectedComponents(snap.graph);
  size_t reachable = 0;
  for (const CityPair& p : pairs) {
    reachable += components.label[static_cast<size_t>(snap.CityNode(p.a))] ==
                         components.label[static_cast<size_t>(snap.CityNode(p.b))]
                     ? 1
                     : 0;
  }
  return reachable;
}

// Routes `pairs` in chunks of fewer than kAltMinQueries pairs, each its
// own router call, so every call stays on the Euclidean tiers. Answers
// come back in pair order.
struct ChunkedRoutes {
  std::vector<double> rtt;
  std::vector<std::vector<graph::NodeId>> nodes;
  bool built_table{false};
};

ChunkedRoutes RouteInChunks(const NetworkModel::Snapshot& snap,
                            const std::vector<CityPair>& pairs) {
  ChunkedRoutes chunked;
  SweepWorkspace ws;
  SlotRoutes routes;
  const size_t chunk = kAltMinQueries - 1;
  for (size_t first = 0; first < pairs.size(); first += chunk) {
    const std::vector<CityPair> part(
        pairs.begin() + static_cast<std::ptrdiff_t>(first),
        pairs.begin() + static_cast<std::ptrdiff_t>(std::min(first + chunk, pairs.size())));
    RouteSlotPairs(snap, part, GroupPairsBySource(part), /*want_paths=*/true,
                   &ws, &routes);
    chunked.built_table = chunked.built_table || !ws.landmarks.landmarks().empty();
    for (size_t i = 0; i < part.size(); ++i) {
      chunked.rtt.push_back(routes.rtt[i]);
      const auto run = routes.PathNodes(i);
      chunked.nodes.emplace_back(run.begin(), run.end());
    }
  }
  return chunked;
}

// One snapshot, one connectivity view: the ALT tier (all pairs in one
// call), the Euclidean tier (chunked) and plain Dijkstra agree bitwise
// on every RTT and every node chain; distance-only routing reports the
// same RTTs as path routing.
void ExpectTiersAgree(const NetworkModel::Snapshot& snap,
                      const std::vector<CityPair>& pairs, const char* view) {
  ASSERT_GE(ReachableCount(snap, pairs), kAltMinQueries) << view;
  const DijkstraRoutes dijkstra = DijkstraReference(snap, pairs);
  const std::vector<double>& reference = dijkstra.rtt;

  SweepWorkspace ws;
  SlotRoutes alt;
  RouteSlotPairs(snap, pairs, GroupPairsBySource(pairs), /*want_paths=*/true,
                 &ws, &alt);
  EXPECT_EQ(static_cast<int>(ws.landmarks.landmarks().size()),
            graph::LandmarkTable::kDefaultNumLandmarks)
      << view << ": the full pair set must take the ALT tier";
  SlotRoutes alt_rtt_only;
  RouteSlotPairs(snap, pairs, GroupPairsBySource(pairs), /*want_paths=*/false,
                 &ws, &alt_rtt_only);

  const ChunkedRoutes euclidean = RouteInChunks(snap, pairs);
  EXPECT_FALSE(euclidean.built_table)
      << view << ": chunks below kAltMinQueries must not build a table";

  int reachable = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(BitEq(alt.rtt[i], reference[i])) << view << " pair " << i;
    ASSERT_TRUE(BitEq(alt_rtt_only.rtt[i], reference[i])) << view << " pair " << i;
    ASSERT_TRUE(BitEq(euclidean.rtt[i], reference[i])) << view << " pair " << i;
    const auto run = alt.PathNodes(i);
    EXPECT_EQ(std::vector<graph::NodeId>(run.begin(), run.end()),
              dijkstra.nodes[i])
        << view << " pair " << i << ": ALT node chain";
    EXPECT_EQ(euclidean.nodes[i], dijkstra.nodes[i])
        << view << " pair " << i << ": Euclidean node chain";
    reachable += reference[i] != kInf ? 1 : 0;
  }
  EXPECT_GT(reachable, 0) << view;
}

TEST(SlotRouter, TiersAgreeOnHybridAndMaskedBentPipe) {
  const std::vector<CityPair> pairs = Pairs();
  for (const double t : {0.0, 2700.0}) {
    NetworkModel::Snapshot snap = HybridModel().BuildSnapshot(t);
    ExpectTiersAgree(snap, pairs, "hybrid");
    for (const graph::EdgeId e : snap.isl_edges) {
      snap.graph.SetEnabled(e, false);
    }
    ExpectTiersAgree(snap, pairs, "bent-pipe");
  }
}

// The bench-default configuration (332 generated cities, 2.5 deg relay
// grid, 500 pairs) holds an exact tie on one ISL-masked bent-pipe path
// at t = 0: two equal-length branches that A* and Dijkstra used to
// settle in different orders. The path expansion's tie guard on the
// full graph must catch it, and the router must report Dijkstra's node
// chain.
TEST(SlotRouter, NodeChainsMatchDijkstraThroughExactTies) {
  const std::vector<data::City> cities = data::GenerateWorldCities(332, 42);
  NetworkOptions options = Options(ConnectivityMode::kHybrid);
  options.relay_spacing_deg = 2.5;
  const NetworkModel model(Scenario::Starlink(), options, cities);
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 500;
  const std::vector<CityPair> pairs = SampleCityPairs(cities, traffic);

  NetworkModel::Snapshot snap = model.BuildSnapshot(0.0);
  for (const graph::EdgeId e : snap.isl_edges) {
    snap.graph.SetEnabled(e, false);
  }
  const uint64_t contract_before = ContractTieFallbacks();
  ExpectTiersAgree(snap, pairs, "bent-pipe t=0");
  EXPECT_GT(ContractTieFallbacks(), contract_before)
      << "no exact tie reached the contraction's tie guard";
}

// Below the break-even the router never builds a table, whatever the
// workspace held before.
TEST(SlotRouter, SmallSlotsKeepEuclideanTiers) {
  const NetworkModel::Snapshot snap = HybridModel().BuildSnapshot(0.0);
  const std::vector<CityPair> all = Pairs();
  const std::vector<CityPair> few(all.begin(), all.begin() + 20);
  SweepWorkspace ws;
  SlotRoutes routes;
  RouteSlotPairs(snap, few, GroupPairsBySource(few), /*want_paths=*/false, &ws,
                 &routes);
  EXPECT_TRUE(ws.landmarks.landmarks().empty());
  const std::vector<double> reference = DijkstraRtts(snap, few);
  for (size_t i = 0; i < few.size(); ++i) {
    EXPECT_TRUE(BitEq(routes.rtt[i], reference[i])) << "pair " << i;
  }
}

// The contraction keeps every satellite and city under its id, and the
// distances from any source to them are the full graph's bit for bit;
// the router's RTTs and node chains are plain Dijkstra's on the full
// graph.
void ExpectContractionMatches(const NetworkModel::Snapshot& snap,
                              const std::vector<CityPair>& pairs,
                              const std::string& view) {
  graph::RelayContraction contraction;
  contraction.Build(snap.graph, snap.num_sats + snap.num_cities);
  ASSERT_EQ(contraction.NumNodes(), snap.num_sats + snap.num_cities) << view;
  graph::DijkstraWorkspace ws;
  std::vector<double> full;
  std::vector<double> contracted;
  for (int city = 0; city < snap.num_cities; city += 7) {
    graph::ShortestDistancesInto(snap.graph, snap.CityNode(city), ws, &full);
    graph::ShortestDistancesInto(contraction, snap.CityNode(city), ws, &contracted);
    for (graph::NodeId v = 0; v < contraction.NumNodes(); ++v) {
      ASSERT_TRUE(BitEq(contracted[static_cast<size_t>(v)],
                        full[static_cast<size_t>(v)]))
          << view << ": city " << city << " to node " << v;
    }
  }

  const DijkstraRoutes reference = DijkstraReference(snap, pairs);
  SweepWorkspace sweep_ws;
  SlotRoutes routes;
  RouteSlotPairs(snap, pairs, GroupPairsBySource(pairs), /*want_paths=*/true,
                 &sweep_ws, &routes);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(BitEq(routes.rtt[i], reference.rtt[i])) << view << " pair " << i;
    const auto run = routes.PathNodes(i);
    EXPECT_EQ(std::vector<graph::NodeId>(run.begin(), run.end()),
              reference.nodes[i])
        << view << " pair " << i;
  }
}

// Both views, on a 4 deg and a 1 deg relay grid.
TEST(SlotRouter, ContractionMatchesFullGraphDijkstra) {
  const std::vector<CityPair> pairs = Pairs();
  for (const double spacing : {4.0, 1.0}) {
    NetworkOptions options = Options(ConnectivityMode::kHybrid);
    options.relay_spacing_deg = spacing;
    const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
    NetworkModel::Snapshot snap = model.BuildSnapshot(900.0);
    const std::string grid = std::to_string(spacing) + " deg ";
    ExpectContractionMatches(snap, pairs, grid + "hybrid");
    for (const graph::EdgeId e : snap.isl_edges) {
      snap.graph.SetEnabled(e, false);
    }
    ExpectContractionMatches(snap, pairs, grid + "bent-pipe");
  }
}

// The graphs the other studies route besides the plain hybrid and
// bent-pipe views: the failure study's hybrid snapshot with every edge
// of a tenth of the satellites disabled, the outage study's bent-pipe
// snapshot with every radio edge above a fade margin disabled, and the
// city-GT + ISL graphs of the attenuation (one shell) and multishell
// (two shells) studies, where the contraction keeps every node. On each
// the contraction and every router tier agree with plain Dijkstra.
TEST(SlotRouter, MaskedAndIslOnlySnapshotsMatchDijkstra) {
  const std::vector<CityPair> pairs = Pairs();
  const auto check = [&](const NetworkModel::Snapshot& snap, const char* view) {
    ExpectContractionMatches(snap, pairs, view);
    ExpectTiersAgree(snap, pairs, view);
  };

  NetworkModel::Snapshot failed = HybridModel().BuildSnapshot(900.0);
  int failed_edges = 0;
  for (int sat = 0; sat < failed.num_sats; sat += 10) {
    for (const graph::HalfEdge& half : failed.graph.Neighbours(failed.SatNode(sat))) {
      failed_edges += failed.graph.IsEnabled(half.edge) ? 1 : 0;
      failed.graph.SetEnabled(half.edge, false);
    }
  }
  ASSERT_GT(failed_edges, 0);
  check(failed, "failure-masked hybrid");

  const NetworkModel& bp = BentPipeModel();
  NetworkModel::Snapshot outage = bp.BuildSnapshot(900.0);
  itur::SlantPathConfig config;
  config.frequency_ghz = bp.scenario().radio.uplink_freq_ghz;
  size_t dead = 0;
  for (const graph::EdgeId e : outage.radio_edges) {
    const graph::EdgeRecord& rec = outage.graph.Edge(e);
    const graph::NodeId ground = outage.IsSat(rec.a) ? rec.b : rec.a;
    const graph::NodeId sat = outage.IsSat(rec.a) ? rec.a : rec.b;
    const double elevation =
        geo::ElevationAngleDeg(outage.node_ecef[static_cast<size_t>(ground)],
                               outage.node_ecef[static_cast<size_t>(sat)]);
    const double db = itur::SlantPathAttenuationDb(bp.GroundNodeCoord(outage, ground),
                                                   elevation, config, 0.1);
    if (db > kOutageMarginDb) {
      outage.graph.SetEnabled(e, false);
      ++dead;
    }
  }
  ASSERT_GT(dead, 0u);
  ASSERT_LT(dead, outage.radio_edges.size());
  check(outage, "outage-masked bent-pipe");

  NetworkOptions isl_only;
  isl_only.mode = ConnectivityMode::kIslOnly;
  const NetworkModel single(Scenario::Starlink(), isl_only, data::AnchorCities());
  check(single.BuildSnapshot(900.0), "ISL-only");
  const NetworkModel dual(Scenario::Starlink(), isl_only, data::AnchorCities(),
                          {orbit::PolarShell()});
  check(dual.BuildSnapshot(900.0), "dual-shell ISL-only");
}

// A hand-built snapshot with both kinds of tie the contraction must
// hand back to a full-graph Dijkstra:
//   - cities C0 -> C1 through S0 -> {R0 | R1} -> S1: two relays with
//     equal sums, so the contraction keeps two S0 -> S1 arcs and S1 has
//     two tight predecessors;
//   - cities C2 -> C1 through {S2 | S3} -> R2 -> S1: one relay with two
//     tight satellite predecessors.
// Layout [S0..S3 | C0..C2 | R0..R2]; weights are small integers, so
// every sum is exact and each tie is exact. All nodes share one
// position, so the Euclidean potential is 0 (plain Dijkstra order).
TEST(SlotRouter, RelayTiesFallBackToFullGraphDijkstra) {
  NetworkModel::Snapshot snap;
  snap.num_sats = 4;
  snap.num_cities = 3;
  snap.num_relays = 3;
  snap.num_aircraft = 0;
  snap.node_ecef.assign(10, geo::Vec3{});
  snap.graph.Reset(10);
  const auto sat = [](int i) { return i; };
  const auto city = [](int i) { return 4 + i; };
  const auto relay = [](int i) { return 7 + i; };
  snap.graph.AddEdge(city(0), sat(0), 1.0);
  snap.graph.AddEdge(sat(0), relay(0), 2.0);
  snap.graph.AddEdge(relay(0), sat(1), 2.0);
  snap.graph.AddEdge(sat(0), relay(1), 2.0);
  snap.graph.AddEdge(relay(1), sat(1), 2.0);
  snap.graph.AddEdge(sat(1), city(1), 1.0);
  snap.graph.AddEdge(city(2), sat(2), 1.0);
  snap.graph.AddEdge(city(2), sat(3), 1.0);
  snap.graph.AddEdge(sat(2), relay(2), 2.0);
  snap.graph.AddEdge(sat(3), relay(2), 2.0);
  snap.graph.AddEdge(relay(2), sat(1), 2.0);
  snap.graph.FinalizeAdjacency();

  graph::RelayContraction contraction;
  contraction.Build(snap.graph, snap.num_sats + snap.num_cities);
  int s0_to_s1 = 0;
  for (const graph::ContractedArc& arc : contraction.Neighbours(sat(0))) {
    s0_to_s1 += arc.to == sat(1) ? 1 : 0;
  }
  EXPECT_EQ(s0_to_s1, 2) << "both equal-sum relays must be kept";

  const std::vector<CityPair> pairs = {{0, 1}, {2, 1}};
  const DijkstraRoutes reference = DijkstraReference(snap, pairs);
  const uint64_t before = ContractTieFallbacks();
  SweepWorkspace ws;
  SlotRoutes routes;
  RouteSlotPairs(snap, pairs, GroupPairsBySource(pairs), /*want_paths=*/true, &ws,
                 &routes);
  EXPECT_EQ(ContractTieFallbacks() - before, 2u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(BitEq(routes.rtt[i], reference.rtt[i])) << "pair " << i;
    EXPECT_EQ(routes.rtt[i], 12.0) << "pair " << i;
    const auto run = routes.PathNodes(i);
    EXPECT_EQ(std::vector<graph::NodeId>(run.begin(), run.end()),
              reference.nodes[i])
        << "pair " << i;
  }
}

// A hand-built snapshot with an exact tie on the A* chain: C0 -> C1
// through S0 -> {R0 (3 + 1) | R1 (1 + 3)} -> S1. The contraction's
// search takes S0's first detour arc, R0's; Dijkstra on the full graph
// settles R1 first and reaches S1 through it. Layout [S0 S1 | C0 C1 |
// R0 R1], all nodes at one position (Euclidean potential 0), one pair:
// the A* tier. The RTT is A*'s label, which needs no tie guard; only
// the node chain does, and ExpandPath's full-graph rerun gives it.
TEST(SlotRouter, ExactTieOnTheAStarChain) {
  NetworkModel::Snapshot snap;
  snap.num_sats = 2;
  snap.num_cities = 2;
  snap.num_relays = 2;
  snap.num_aircraft = 0;
  snap.node_ecef.assign(6, geo::Vec3{});
  snap.graph.Reset(6);
  const auto sat = [](int i) { return i; };
  const auto city = [](int i) { return 2 + i; };
  const auto relay = [](int i) { return 4 + i; };
  snap.graph.AddEdge(city(0), sat(0), 1.0);
  snap.graph.AddEdge(sat(0), relay(0), 3.0);
  snap.graph.AddEdge(relay(0), sat(1), 1.0);
  snap.graph.AddEdge(sat(0), relay(1), 1.0);
  snap.graph.AddEdge(relay(1), sat(1), 3.0);
  snap.graph.AddEdge(sat(1), city(1), 1.0);
  snap.graph.FinalizeAdjacency();

  const std::vector<CityPair> pairs = {{0, 1}};
  const DijkstraRoutes reference = DijkstraReference(snap, pairs);
  ASSERT_EQ(reference.nodes[0],
            (std::vector<graph::NodeId>{city(0), sat(0), relay(1), sat(1), city(1)}));
  SweepWorkspace ws;
  SlotRoutes routes;

  const uint64_t astar_before = TieFallbacks();
  const uint64_t contract_before = ContractTieFallbacks();
  RouteSlotPairs(snap, pairs, GroupPairsBySource(pairs), /*want_paths=*/false,
                 &ws, &routes);
  EXPECT_TRUE(BitEq(routes.rtt[0], reference.rtt[0]));
  EXPECT_EQ(TieFallbacks(), astar_before) << "an RTT-only query ran a tie guard";
  EXPECT_EQ(ContractTieFallbacks(), contract_before);

  RouteSlotPairs(snap, pairs, GroupPairsBySource(pairs), /*want_paths=*/true,
                 &ws, &routes);
  EXPECT_TRUE(BitEq(routes.rtt[0], reference.rtt[0]));
  const auto run = routes.PathNodes(0);
  EXPECT_EQ(std::vector<graph::NodeId>(run.begin(), run.end()), reference.nodes[0]);
  EXPECT_EQ(ContractTieFallbacks() - contract_before, 1u);
  EXPECT_EQ(TieFallbacks(), astar_before);
}

// `derived` and `built` hold the same contraction: the same rows in the
// same order, every arc's head, id and weight bits, and every record.
void ExpectSameContraction(const graph::RelayContraction& derived,
                           const graph::RelayContraction& built,
                           const std::string& view) {
  ASSERT_EQ(derived.NumNodes(), built.NumNodes()) << view;
  ASSERT_EQ(derived.NumArcs(), built.NumArcs()) << view;
  for (graph::NodeId n = 0; n < built.NumNodes(); ++n) {
    const auto got = derived.Neighbours(n);
    const auto want = built.Neighbours(n);
    ASSERT_EQ(got.data() - derived.Neighbours(0).data(),
              want.data() - built.Neighbours(0).data())
        << view << ": row " << n << " offset";
    ASSERT_EQ(got.size(), want.size()) << view << ": row " << n;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].to, want[i].to) << view << ": row " << n << " arc " << i;
      ASSERT_EQ(got[i].edge, want[i].edge) << view << ": row " << n << " arc " << i;
      ASSERT_TRUE(BitEq(got[i].weight, want[i].weight) &&
                  BitEq(got[i].weight2, want[i].weight2))
          << view << ": row " << n << " arc " << i;
    }
  }
  for (graph::EdgeId arc = 0; arc < built.NumArcs(); ++arc) {
    const graph::ContractedArcRecord& got = derived.Record(arc);
    const graph::ContractedArcRecord& want = built.Record(arc);
    ASSERT_TRUE(got.tail == want.tail && got.relay == want.relay &&
                got.up == want.up && got.down == want.down)
        << view << ": record " << arc;
  }
}

// Builds the contraction of `g` as it stands, disables `masked`, derives
// the masked contraction and checks it against a fresh Build on the
// masked graph; re-enables `masked`. Returns the arcs dropped.
int ExpectDerivedEqualsRebuild(graph::Graph& g, int num_kept,
                               const std::vector<graph::EdgeId>& masked,
                               const std::string& view) {
  graph::RelayContraction derived;
  derived.Build(g, num_kept);
  const int unmasked_arcs = derived.NumArcs();
  for (const graph::EdgeId e : masked) {
    g.SetEnabled(e, false);
  }
  derived.DropDisabledDirectArcs();
  graph::RelayContraction built;
  built.Build(g, num_kept);
  ExpectSameContraction(derived, built, view);
  for (const graph::EdgeId e : masked) {
    g.SetEnabled(e, true);
  }
  return unmasked_arcs - derived.NumArcs();
}

// The latency study's bent-pipe contraction is the hybrid one with the
// ISLs' direct arcs dropped (RelayContraction::DropDisabledDirectArcs):
// on Starlink hybrid snapshots at 4 and 1 deg it equals a fresh Build on
// the ISL-masked graph row for row, arc id for arc id.
TEST(SlotRouter, MaskedContractionDerivesFromHybrid) {
  for (const double spacing : {4.0, 1.0}) {
    NetworkOptions options = Options(ConnectivityMode::kHybrid);
    options.relay_spacing_deg = spacing;
    const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
    for (const double t : {0.0, 2700.0}) {
      NetworkModel::Snapshot snap = model.BuildSnapshot(t);
      const std::string view =
          "spacing " + std::to_string(spacing) + " t=" + std::to_string(t);
      ASSERT_FALSE(snap.isl_edges.empty()) << view;
      const int dropped = ExpectDerivedEqualsRebuild(
          snap.graph, snap.num_sats + snap.num_cities, snap.isl_edges, view);
      // Each ISL has one direct arc per direction.
      EXPECT_EQ(dropped, 2 * static_cast<int>(snap.isl_edges.size())) << view;
    }
  }
}

// A hand-built slot: the ISL S0-S1 sits between S0's direct city arc
// and its detours through R0, so dropping it shifts the ids of the arcs
// after it in S0's row and in every later row.
// Layout [S0 S1 S2 | C0 | R0].
TEST(SlotRouter, MaskedContractionDerivesOnHandBuiltSlot) {
  graph::Graph g(5);
  const auto sat = [](int i) { return i; };
  const graph::NodeId city = 3;
  const graph::NodeId relay = 4;
  g.AddEdge(city, sat(0), 1.0);
  const graph::EdgeId isl = g.AddEdge(sat(0), sat(1), 3.0);
  g.AddEdge(sat(0), relay, 2.0);
  g.AddEdge(relay, sat(1), 2.5);
  g.AddEdge(relay, sat(2), 2.0);
  g.AddEdge(sat(1), city, 4.0);
  const int dropped = ExpectDerivedEqualsRebuild(g, 4, {isl}, "hand-built");
  EXPECT_EQ(dropped, 2);
}

// The latency study's one router call equals RouteSlotPairs on the
// hybrid graph and on the ISL-masked one, leaves every ISL enabled, and
// counts the arcs of both contractions it routed on.
TEST(SlotRouter, HybridAndBentPipeEqualsTwoRouterCalls) {
  const std::vector<CityPair> pairs = Pairs();
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  obs::Counter& arcs = obs::MetricsRegistry::Global().GetCounter("route.contract.arcs");
  for (const double t : {0.0, 2700.0}) {
    NetworkModel::Snapshot snap = HybridModel().BuildSnapshot(t);
    SweepWorkspace ws;
    SlotRoutes hybrid;
    SlotRoutes bent_pipe;
    const uint64_t arcs_before = arcs.Value();
    RouteSlotPairsHybridAndBentPipe(snap, pairs, groups, &ws, &hybrid, &bent_pipe);
    const uint64_t shared_arcs = arcs.Value() - arcs_before;
    for (const graph::EdgeId e : snap.isl_edges) {
      ASSERT_TRUE(snap.graph.IsEnabled(e)) << "t=" << t << " ISL " << e;
    }

    SweepWorkspace fresh;
    SlotRoutes want_hybrid;
    SlotRoutes want_bent_pipe;
    const uint64_t fresh_before = arcs.Value();
    RouteSlotPairs(snap, pairs, groups, /*want_paths=*/false, &fresh, &want_hybrid);
    for (const graph::EdgeId e : snap.isl_edges) {
      snap.graph.SetEnabled(e, false);
    }
    RouteSlotPairs(snap, pairs, groups, /*want_paths=*/false, &fresh,
                   &want_bent_pipe);
    EXPECT_EQ(shared_arcs, arcs.Value() - fresh_before) << "t=" << t;
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_TRUE(BitEq(hybrid.rtt[i], want_hybrid.rtt[i])) << "t=" << t << " pair " << i;
      EXPECT_TRUE(BitEq(bent_pipe.rtt[i], want_bent_pipe.rtt[i]))
          << "t=" << t << " pair " << i;
    }
    EXPECT_NE(hybrid.rtt, bent_pipe.rtt) << "t=" << t;
  }
}

TEST(SlotRouter, LatencyAndChurnThreadInvariant) {
  const std::vector<CityPair> pairs = Pairs();
  SnapshotSchedule schedule;
  schedule.duration_sec = 4.0 * 900.0;
  schedule.step_sec = 900.0;

  const auto latency = [&] {
    return RunLatencyStudy(BentPipeModel(), HybridModel(), pairs, schedule);
  };
  const LatencyStudyResult l1 = WithThreads("1", latency);
  const LatencyStudyResult l4 = WithThreads("4", latency);
  ASSERT_EQ(l1.bp.size(), l4.bp.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    for (size_t s = 0; s < l1.snapshot_times.size(); ++s) {
      ASSERT_TRUE(BitEq(l1.bp[i].rtt_ms[s], l4.bp[i].rtt_ms[s]));
      ASSERT_TRUE(BitEq(l1.hybrid[i].rtt_ms[s], l4.hybrid[i].rtt_ms[s]));
    }
  }

  const auto churn = [&] {
    return RunAggregateChurnStudy(HybridModel(), pairs, schedule);
  };
  const AggregateChurn c1 = WithThreads("1", churn);
  const AggregateChurn c4 = WithThreads("4", churn);
  EXPECT_TRUE(BitEq(c1.mean_change_rate, c4.mean_change_rate));
  EXPECT_TRUE(BitEq(c1.mean_jaccard, c4.mean_jaccard));
  EXPECT_TRUE(BitEq(c1.mean_rtt_jitter_ms, c4.mean_rtt_jitter_ms));
  EXPECT_EQ(c1.pairs_evaluated, c4.pairs_evaluated);
}

}  // namespace
}  // namespace leosim::core
