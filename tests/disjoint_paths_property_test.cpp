// Property tests for the throughput study's k edge-disjoint shortest
// paths (graph/disjoint_paths.hpp), which it runs through the per-slot
// router (core/slot_router.hpp). On bent-pipe and hybrid snapshots at
// t = 0 and t = 2700 s, for k = 1 and 4 and with both A* potentials the
// router uses (landmark table at k = 4, Euclidean latency bound at
// k = 1), the study's totals and sub-flow counts, and the greedy
// routing-policy row's mean path latency too, must equal a per-pair
// plain-Dijkstra oracle (plain_flows_oracle.hpp) bit for bit. The t = 0
// snapshots hold exact ties, so the path expansion's tie guard must
// fire along the way.
//
// The router searches a residual view of the slot's relay contraction
// (graph::ResidualContraction). After every ban the view must equal a
// contraction rebuilt on the masked graph, row for row; the router's
// paths must equal the plain overload's for k = 1..4 on 4 and 1 deg
// grids under hybrid, bent-pipe, GSO-excluded and beam-budgeted
// connectivity, and leave every edge's enabled flag and half-edge
// weights as they were; hand-built graphs cover an exact relay tie on
// the first path, a banned relay with a near-tied twin, a broken pair
// with no relay left, and consecutive pairs that share a satellite; and
// the sweep must not depend on the thread count.
//
// ExpandPath checks each chain hop on the contracted row of its node.
// On seeded random graphs full of exact ties, its accept/reject must be
// that of the tie guard it replaced, which read the full graph and is
// kept here as the reference, for every chain a tree, an A* search and
// a residual view between the bans of a k = 4 run leave.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/network_builder.hpp"
#include "core/routing.hpp"
#include "core/slot_router.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/relay_contraction.hpp"
#include "graph/sssp_tree.hpp"
#include "obs/metrics.hpp"
#include "plain_flows_oracle.hpp"
#include "scoped_threads.hpp"

namespace leosim::core {
namespace {

constexpr ConnectivityMode kModes[] = {ConnectivityMode::kBentPipe,
                                       ConnectivityMode::kHybrid};
constexpr double kTimes[] = {0.0, 2700.0};
constexpr int kPathCounts[] = {1, 4};

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

uint64_t ContractTieFallbacks() { return Counter("route.contract.tie_fallbacks"); }

const NetworkModel& Model(ConnectivityMode mode) {
  const auto make = [](ConnectivityMode m) {
    NetworkOptions options;
    options.mode = m;
    options.relay_spacing_deg = 4.0;
    return NetworkModel(Scenario::Starlink(), options, data::AnchorCities());
  };
  static const NetworkModel bent_pipe = make(ConnectivityMode::kBentPipe);
  static const NetworkModel hybrid = make(ConnectivityMode::kHybrid);
  return mode == ConnectivityMode::kHybrid ? hybrid : bent_pipe;
}

// 100 pairs: at k = 1 the study stays below kAltMinQueries (Euclidean
// potential), at k = 4 it clears it (landmark table).
std::vector<CityPair> Pairs() {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 100;
  return SampleCityPairs(data::AnchorCities(), traffic);
}

// Every edge's enabled flag and every half-edge weight, in id order.
struct EdgeState {
  std::vector<bool> enabled;
  std::vector<double> half_weights;

  bool operator==(const EdgeState&) const = default;
};

EdgeState Capture(const graph::Graph& g) {
  EdgeState state;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    state.enabled.push_back(g.IsEnabled(e));
  }
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    for (const graph::HalfEdge& half : g.Neighbours(n)) {
      state.half_weights.push_back(half.weight);
    }
  }
  return state;
}

void ExpectSamePaths(const std::vector<graph::Path>& expected,
                     const std::vector<graph::Path>& actual, const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].edges, expected[i].edges) << what << " path " << i;
    EXPECT_TRUE(BitEq(actual[i].distance, expected[i].distance))
        << what << " path " << i;
  }
}

// The sweep and the greedy routing-policy row, both on the router,
// against the plain oracle (plain_flows_oracle.hpp): per-pair plain
// Dijkstra disjoint paths on the slot's full graph, a link per edge and
// MaxMinFairAllocate.
TEST(GoalDirectedDisjointPaths, ThroughputSweepBitEqualToPerPairOracle) {
  const std::vector<CityPair> pairs = Pairs();
  SnapshotSchedule schedule;
  schedule.step_sec = kTimes[1];
  schedule.duration_sec = 2.0 * kTimes[1];
  ASSERT_EQ(schedule.Times(), std::vector<double>(std::begin(kTimes), std::end(kTimes)));
  const uint64_t fallbacks_before = ContractTieFallbacks();
  for (const ConnectivityMode mode : kModes) {
    for (const int k : kPathCounts) {
      const std::vector<ThroughputResult> sweep =
          RunThroughputSweep(Model(mode), pairs, k, schedule);
      ASSERT_EQ(sweep.size(), std::size(kTimes));
      for (size_t s = 0; s < sweep.size(); ++s) {
        const std::string what = std::string(ToString(mode)) + " k=" +
                                 std::to_string(k) + " t=" + std::to_string(kTimes[s]);
        NetworkModel::Snapshot snap = Model(mode).BuildSnapshot(kTimes[s]);
        const PolicyThroughputResult plain =
            oracle::PlainGreedyThroughput(snap, pairs, k);
        const ThroughputResult& expected = plain.throughput;
        EXPECT_TRUE(BitEq(sweep[s].total_gbps, expected.total_gbps))
            << what << ": " << sweep[s].total_gbps << " vs " << expected.total_gbps;
        EXPECT_EQ(sweep[s].subflows, expected.subflows) << what;
        EXPECT_EQ(sweep[s].pairs_routed, expected.pairs_routed) << what;
        EXPECT_GT(sweep[s].subflows, 0) << what;

        const PolicyThroughputResult greedy = RunThroughputWithPolicy(
            Model(mode), pairs, k, kTimes[s], RoutingPolicy::kDisjointGreedy);
        EXPECT_TRUE(BitEq(greedy.throughput.total_gbps, expected.total_gbps)) << what;
        EXPECT_EQ(greedy.throughput.subflows, expected.subflows) << what;
        EXPECT_EQ(greedy.throughput.pairs_routed, expected.pairs_routed) << what;
        EXPECT_TRUE(BitEq(greedy.mean_path_latency_ms, plain.mean_path_latency_ms))
            << what << ": " << greedy.mean_path_latency_ms << " vs "
            << plain.mean_path_latency_ms;
      }
    }
  }
  EXPECT_GT(ContractTieFallbacks(), fallbacks_before)
      << "no exact tie reached the path expansion's tie guard";
}

// The four connectivity variants the router must serve.
struct Variant {
  const char* name;
  NetworkOptions options;
};

std::vector<Variant> Variants(double spacing) {
  NetworkOptions base;
  base.relay_spacing_deg = spacing;
  NetworkOptions hybrid = base;
  hybrid.mode = ConnectivityMode::kHybrid;
  NetworkOptions bent_pipe = base;
  bent_pipe.mode = ConnectivityMode::kBentPipe;
  NetworkOptions gso = hybrid;
  gso.apply_gso_exclusion = true;
  NetworkOptions beams = hybrid;
  beams.max_gt_links_per_satellite = 4;
  return {{"hybrid", hybrid},
          {"bent-pipe", bent_pipe},
          {"gso-excluded", gso},
          {"4-beam", beams}};
}

// A contraction's rows as sorted (tail, head, relay, up, down, weights)
// tuples: arc ids and row order aside, what a search can relax.
using ArcKey = std::tuple<graph::NodeId, graph::NodeId, graph::NodeId, graph::EdgeId,
                          graph::EdgeId, uint64_t, uint64_t>;

template <typename Contracted>
std::vector<ArcKey> ArcKeys(const Contracted& c) {
  std::vector<ArcKey> keys;
  for (graph::NodeId n = 0; n < c.NumNodes(); ++n) {
    for (const graph::ContractedArc& arc : c.Neighbours(n)) {
      const graph::ContractedArcRecord& rec = c.Record(arc.edge);
      EXPECT_EQ(rec.tail, n);
      keys.emplace_back(n, arc.to, rec.relay, rec.up, rec.down,
                        std::bit_cast<uint64_t>(arc.weight),
                        std::bit_cast<uint64_t>(arc.weight2));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// After each of a pair's taken paths (the plain overload's) is disabled
// and banned, the residual view holds exactly the arcs a contraction
// rebuilt on the masked graph holds; ClearBans brings back the base.
TEST(ContractedDisjointPaths, ResidualViewEqualsRebuild) {
  const std::vector<CityPair> pairs = Pairs();
  uint64_t repairs = 0;
  for (const ConnectivityMode mode : kModes) {
    NetworkModel::Snapshot snap = Model(mode).BuildSnapshot(0.0);
    graph::Graph& g = snap.graph;
    const int kept = snap.num_sats + snap.num_cities;
    graph::RelayContraction base;
    base.Build(g, kept);
    const std::vector<ArcKey> base_keys = ArcKeys(base);
    graph::ResidualContraction residual;
    residual.Reset(base);
    graph::RelayContraction rebuilt;
    for (size_t i = 0; i < pairs.size(); i += 5) {
      const std::vector<graph::Path> paths = graph::KEdgeDisjointShortestPaths(
          g, snap.CityNode(pairs[i].a), snap.CityNode(pairs[i].b), 4);
      residual.ClearBans();
      for (const graph::Path& path : paths) {
        for (const graph::EdgeId e : path.edges) {
          g.SetEnabled(e, false);
        }
        residual.Ban(path.edges);
        rebuilt.Build(g, kept);
        ASSERT_EQ(ArcKeys(residual), ArcKeys(rebuilt))
            << ToString(mode) << " pair " << i;
      }
      for (const graph::Path& path : paths) {
        for (const graph::EdgeId e : path.edges) {
          g.SetEnabled(e, true);
        }
      }
      residual.ClearBans();
      ASSERT_EQ(ArcKeys(residual), base_keys) << ToString(mode) << " pair " << i;
    }
    repairs += residual.repairs();
  }
  EXPECT_GT(repairs, 0u);
}

// The router's paths equal the plain overload's edge for edge for
// k = 1..4 (the greedy scheme's k paths are the first k of its four),
// on 4 and 1 deg grids and every connectivity variant, and the graph is
// restored after every slot.
TEST(ContractedDisjointPaths, RouterPathsEqualPlainOverload) {
  const std::vector<CityPair> pairs = Pairs();
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  const uint64_t repairs_before = Counter("route.contract.repairs");
  for (const double spacing : {4.0, 1.0}) {
    for (const Variant& variant : Variants(spacing)) {
      const NetworkModel model(Scenario::Starlink(), variant.options,
                               data::AnchorCities());
      NetworkModel::Snapshot snap = model.BuildSnapshot(900.0);
      const EdgeState initial = Capture(snap.graph);
      std::vector<std::vector<graph::Path>> plain;
      graph::DijkstraWorkspace dijkstra;
      for (const CityPair& p : pairs) {
        plain.push_back(graph::KEdgeDisjointShortestPaths(
            snap.graph, snap.CityNode(p.a), snap.CityNode(p.b), 4, dijkstra));
      }
      SweepWorkspace ws;
      std::vector<std::vector<graph::Path>> routed;
      for (int k = 1; k <= 4; ++k) {
        RouteSlotDisjointPaths(snap, pairs, groups, k, &ws, &routed);
        ASSERT_EQ(routed.size(), pairs.size());
        for (size_t i = 0; i < pairs.size(); ++i) {
          const std::vector<graph::Path> expected(
              plain[i].begin(),
              plain[i].begin() + std::min<size_t>(plain[i].size(), k));
          ExpectSamePaths(expected, routed[i],
                          std::to_string(spacing) + " deg " + variant.name +
                              " k=" + std::to_string(k) + " pair " +
                              std::to_string(i));
        }
        EXPECT_TRUE(Capture(snap.graph) == initial) << variant.name << " k=" << k;
      }
    }
  }
  EXPECT_GT(Counter("route.contract.repairs"), repairs_before);
}

// Hand-built snapshots: [satellites | cities | relays], all nodes at one
// position (Euclidean potential 0), routed for pairs of city indices.
struct HandBuilt {
  NetworkModel::Snapshot snap;

  HandBuilt(int sats, int cities, int relays) {
    snap.num_sats = sats;
    snap.num_cities = cities;
    snap.num_relays = relays;
    snap.num_aircraft = 0;
    const int nodes = sats + cities + relays;
    snap.node_ecef.assign(static_cast<size_t>(nodes), geo::Vec3{});
    snap.graph.Reset(nodes);
  }
  graph::NodeId Sat(int i) const { return i; }
  graph::NodeId City(int i) const { return snap.num_sats + i; }
  graph::NodeId Relay(int i) const { return snap.num_sats + snap.num_cities + i; }

  // The router's paths for `pairs`, after checking each pair against the
  // plain overload.
  std::vector<std::vector<graph::Path>> Route(const std::vector<CityPair>& pairs,
                                              int k) {
    snap.graph.FinalizeAdjacency();
    SweepWorkspace ws;
    std::vector<std::vector<graph::Path>> routed;
    RouteSlotDisjointPaths(snap, pairs, GroupPairsBySource(pairs), k, &ws, &routed);
    for (size_t i = 0; i < pairs.size(); ++i) {
      ExpectSamePaths(graph::KEdgeDisjointShortestPaths(snap.graph,
                                                        City(pairs[i].a),
                                                        City(pairs[i].b), k),
                      routed[i], "pair " + std::to_string(i));
    }
    return routed;
  }
};

bool UsesNode(const graph::Path& path, graph::NodeId n) {
  return std::find(path.nodes.begin(), path.nodes.end(), n) != path.nodes.end();
}

// S0 -> S1 runs through R0 (3 + 1) and R1 (1 + 3): an exact tie. The
// contraction's search takes S0's first detour arc, R0's, while
// Dijkstra on the full graph settles R1 first and reaches S1 through
// it, so only the path expansion's tie guard (and its full-graph rerun)
// gives the first path the plain overload's edges. The second path
// leaves C0 through S2 and reaches C1 through S3 over R0, which the ban
// of R1's edges repairs the pair to.
TEST(ContractedDisjointPaths, ExactRelayTieOnTheFirstPath) {
  HandBuilt h(4, 2, 2);
  graph::Graph& g = h.snap.graph;
  g.AddEdge(h.City(0), h.Sat(0), 1.0);
  g.AddEdge(h.City(0), h.Sat(2), 1.0);
  g.AddEdge(h.Sat(2), h.Sat(0), 1.0);
  g.AddEdge(h.Sat(0), h.Relay(0), 3.0);
  g.AddEdge(h.Relay(0), h.Sat(1), 1.0);
  g.AddEdge(h.Sat(0), h.Relay(1), 1.0);
  g.AddEdge(h.Relay(1), h.Sat(1), 3.0);
  g.AddEdge(h.City(1), h.Sat(1), 1.0);
  g.AddEdge(h.City(1), h.Sat(3), 1.0);
  g.AddEdge(h.Sat(3), h.Sat(1), 1.0);

  const uint64_t reruns_before = ContractTieFallbacks();
  const auto routed = h.Route({{0, 1}}, 2);
  ASSERT_EQ(routed[0].size(), 2u);
  EXPECT_TRUE(UsesNode(routed[0][0], h.Relay(1)));
  EXPECT_EQ(routed[0][0].distance, 6.0);
  EXPECT_TRUE(UsesNode(routed[0][1], h.Relay(0)));
  EXPECT_EQ(routed[0][1].distance, 8.0);
  EXPECT_EQ(ContractTieFallbacks() - reruns_before, 1u);
}

// S0 -> S1 runs through R0 (sum 4), its near-tied twin R1 (4 + 1e-12,
// inside the band) and R2 (5, outside it: no base arc). C0 reaches S0
// over three disjoint routes and C1 leaves S1 over three, so the paths
// take R0, then R1, then R2, whose arc only the repair adds. No exact
// tie anywhere: the tie guard must never rerun.
TEST(ContractedDisjointPaths, BannedRelayLeavesNearTiedTwin) {
  HandBuilt h(6, 2, 3);
  graph::Graph& g = h.snap.graph;
  g.AddEdge(h.City(0), h.Sat(0), 1.0);
  g.AddEdge(h.City(0), h.Sat(2), 1.0);
  g.AddEdge(h.Sat(2), h.Sat(0), 1.0);
  g.AddEdge(h.City(0), h.Sat(4), 1.0);
  g.AddEdge(h.Sat(4), h.Sat(0), 1.5);
  g.AddEdge(h.City(1), h.Sat(1), 1.0);
  g.AddEdge(h.City(1), h.Sat(3), 1.0);
  g.AddEdge(h.Sat(3), h.Sat(1), 1.0);
  g.AddEdge(h.City(1), h.Sat(5), 1.0);
  g.AddEdge(h.Sat(5), h.Sat(1), 1.5);
  g.AddEdge(h.Sat(0), h.Relay(0), 2.0);
  g.AddEdge(h.Relay(0), h.Sat(1), 2.0);
  g.AddEdge(h.Sat(0), h.Relay(1), 2.0);
  g.AddEdge(h.Relay(1), h.Sat(1), 2.0 + 1e-12);
  g.AddEdge(h.Sat(0), h.Relay(2), 2.5);
  g.AddEdge(h.Relay(2), h.Sat(1), 2.5);
  g.FinalizeAdjacency();

  graph::RelayContraction base;
  base.Build(g, h.snap.num_sats + h.snap.num_cities);
  std::vector<graph::NodeId> relays;
  for (const graph::ContractedArc& arc : base.Neighbours(h.Sat(0))) {
    if (arc.to == h.Sat(1)) {
      relays.push_back(base.Record(arc.edge).relay);
    }
  }
  EXPECT_EQ(relays, (std::vector<graph::NodeId>{h.Relay(0), h.Relay(1)}))
      << "the twin is kept and R2 is not";

  const uint64_t reruns_before = ContractTieFallbacks();
  const uint64_t repairs_before = Counter("route.contract.repairs");
  const auto routed = h.Route({{0, 1}}, 4);
  ASSERT_EQ(routed[0].size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(UsesNode(routed[0][static_cast<size_t>(i)], h.Relay(i))) << i;
  }
  EXPECT_EQ(ContractTieFallbacks(), reruns_before);
  EXPECT_GT(Counter("route.contract.repairs"), repairs_before);
}

// S0 -> S1 has one relay, R0, and a long ISL. The first path takes R0;
// the repaired pair has no relay left, so the second path must take the
// ISL; C0 has no third link.
TEST(ContractedDisjointPaths, BrokenPairWithNoRelayLeft) {
  HandBuilt h(4, 2, 1);
  graph::Graph& g = h.snap.graph;
  g.AddEdge(h.City(0), h.Sat(0), 1.0);
  g.AddEdge(h.City(0), h.Sat(2), 1.0);
  g.AddEdge(h.Sat(2), h.Sat(0), 1.0);
  g.AddEdge(h.City(1), h.Sat(1), 1.0);
  g.AddEdge(h.City(1), h.Sat(3), 1.0);
  g.AddEdge(h.Sat(3), h.Sat(1), 1.0);
  g.AddEdge(h.Sat(0), h.Relay(0), 2.0);
  g.AddEdge(h.Relay(0), h.Sat(1), 2.0);
  const graph::EdgeId isl = g.AddEdge(h.Sat(0), h.Sat(1), 10.0);

  const uint64_t reruns_before = ContractTieFallbacks();
  const auto routed = h.Route({{0, 1}}, 3);
  ASSERT_EQ(routed[0].size(), 2u);
  EXPECT_TRUE(UsesNode(routed[0][0], h.Relay(0)));
  EXPECT_EQ(routed[0][0].distance, 6.0);
  EXPECT_NE(std::find(routed[0][1].edges.begin(), routed[0][1].edges.end(), isl),
            routed[0][1].edges.end());
  EXPECT_EQ(routed[0][1].distance, 14.0);
  EXPECT_EQ(ContractTieFallbacks(), reruns_before);
}

// C0 and C2 both reach C1 through S0 -> R0 -> S1. C0's two paths ban
// S0's detour and S1's link to C1; C2, routed next on the same view,
// must see them again: its paths equal those it gets alone, in either
// order.
TEST(ContractedDisjointPaths, ConsecutivePairsSharingASatelliteStartClean) {
  HandBuilt h(4, 3, 1);
  graph::Graph& g = h.snap.graph;
  g.AddEdge(h.City(0), h.Sat(0), 1.0);
  g.AddEdge(h.City(0), h.Sat(2), 1.0);
  g.AddEdge(h.Sat(2), h.Sat(1), 20.0);
  g.AddEdge(h.City(2), h.Sat(0), 1.0);
  g.AddEdge(h.Sat(0), h.Relay(0), 2.0);
  g.AddEdge(h.Relay(0), h.Sat(1), 2.0);
  g.AddEdge(h.Sat(0), h.Sat(1), 10.0);
  g.AddEdge(h.City(1), h.Sat(1), 1.0);
  g.AddEdge(h.City(1), h.Sat(3), 1.0);
  g.AddEdge(h.Sat(3), h.Sat(1), 1.0);

  const CityPair first{0, 1};
  const CityPair second{2, 1};
  const auto alone_first = h.Route({first}, 2);
  const auto alone_second = h.Route({second}, 2);
  ASSERT_EQ(alone_first[0].size(), 2u);
  ASSERT_EQ(alone_second[0].size(), 1u);
  EXPECT_EQ(alone_second[0][0].distance, 6.0);
  for (const auto& order : {std::vector<CityPair>{first, second},
                            std::vector<CityPair>{second, first}}) {
    const auto both = h.Route(order, 2);
    const bool first_is_0 = order[0].a == first.a;
    ExpectSamePaths(alone_first[0], both[first_is_0 ? 0 : 1], "C0 -> C1");
    ExpectSamePaths(alone_second[0], both[first_is_0 ? 1 : 0], "C2 -> C1");
  }
}

// The tie guard ExpandPath ran before it read contracted rows, on the
// source graph `g` as masked now: every node x of the chain but src must
// have exactly one tight edge (u, x), label(u) + w(u, x) == label(x), and
// it must be the chain's; a relay's label is the minimum over its
// neighbours of their label plus the edge weight. Returns whether the
// chain the search left in `workspace` passes.
template <typename Contracted>
bool FullGraphGuardAccepts(const Contracted& c, const graph::Graph& g,
                           graph::NodeId src, graph::NodeId dst,
                           const graph::DijkstraWorkspace& workspace) {
  const graph::NodeId num_kept = c.NumNodes();
  const auto label = [&](graph::NodeId v) {
    if (v < num_kept) {
      return workspace.DistanceOf(v);
    }
    double best = graph::kInfDistance;
    for (const graph::HalfEdge& half : g.Neighbours(v)) {
      best = std::min(best, workspace.DistanceOf(half.to) + half.weight);
    }
    return best;
  };
  const auto only_tight = [&](graph::NodeId x, graph::EdgeId chain_edge) {
    const double dx = label(x);
    int tight = 0;
    bool chain_tight = false;
    for (const graph::HalfEdge& half : g.Neighbours(x)) {
      if (label(half.to) + half.weight == dx) {
        ++tight;
        chain_tight = chain_tight || half.edge == chain_edge;
      }
    }
    return tight == 1 && chain_tight;
  };
  for (graph::NodeId cur = dst; cur != src;) {
    const graph::ContractedArcRecord& rec = c.Record(workspace.ViaEdge(cur));
    if (rec.relay < 0 ? !only_tight(cur, rec.up)
                      : !only_tight(cur, rec.down) || !only_tight(rec.relay, rec.up)) {
      return false;
    }
    cur = rec.tail;
  }
  return true;
}

// A seeded random graph, [satellites | cities | relays], with integer
// weights so that equal sums are exact ties: relays of degree 2-4 and
// cities of degree 1-3 on distinct satellites, and a few ISLs.
struct TieGraph {
  static constexpr int kSats = 10;
  static constexpr int kCities = 4;
  static constexpr int kRelays = 24;
  static constexpr int kKept = kSats + kCities;
  graph::Graph g;

  explicit TieGraph(uint32_t seed) {
    std::mt19937 rng(seed);
    const auto pick = [&rng](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    // `count` distinct satellites, in random order.
    const auto sats = [&](int count) {
      std::vector<graph::NodeId> all(kSats);
      for (int i = 0; i < kSats; ++i) {
        all[static_cast<size_t>(i)] = i;
      }
      std::shuffle(all.begin(), all.end(), rng);
      all.resize(static_cast<size_t>(count));
      return all;
    };
    g.Reset(kKept + kRelays);
    for (int i = 0; i < kSats / 2; ++i) {
      const std::vector<graph::NodeId> ends = sats(2);
      bool linked = false;
      for (const graph::HalfEdge& half : g.Neighbours(ends[0])) {
        linked = linked || half.to == ends[1];
      }
      if (!linked) {
        g.AddEdge(ends[0], ends[1], pick(2, 5));
      }
    }
    for (int c = 0; c < kCities; ++c) {
      for (const graph::NodeId sat : sats(pick(1, 3))) {
        g.AddEdge(kSats + c, sat, pick(1, 2));
      }
    }
    for (int r = 0; r < kRelays; ++r) {
      for (const graph::NodeId sat : sats(pick(2, 4))) {
        g.AddEdge(kKept + r, sat, pick(1, 3));
      }
    }
    g.FinalizeAdjacency();
  }
};

// Runs ExpandPath on the chain the search left in `workspace` into
// `path` and holds its decision to the reference guard's: the tie
// fallbacks it counts (1 on reject) and the path, which is
// graph::ShortestPath's either way. Returns whether the reference
// rejected the chain.
template <typename Contracted>
bool ExpandMatchesReference(const Contracted& c, const graph::Graph& g,
                            graph::NodeId src, graph::NodeId dst,
                            const graph::DijkstraWorkspace& workspace,
                            const std::string& what, graph::Path* path) {
  const bool accepts = FullGraphGuardAccepts(c, g, src, dst, workspace);
  const uint64_t before = ContractTieFallbacks();
  c.ExpandPath(src, dst, workspace, path);
  EXPECT_EQ(ContractTieFallbacks() - before, accepts ? 0u : 1u) << what;
  const std::optional<graph::Path> plain = graph::ShortestPath(g, src, dst);
  EXPECT_TRUE(plain.has_value()) << what;
  if (plain.has_value()) {
    EXPECT_EQ(path->nodes, plain->nodes) << what;
    EXPECT_EQ(path->edges, plain->edges) << what;
    EXPECT_TRUE(BitEq(path->distance, plain->distance)) << what;
  }
  return !accepts;
}

TEST(ContractedDisjointPaths, RowTieCheckDecidesAsTheFullGraphGuard) {
  uint64_t chains = 0;
  uint64_t tree_rejects = 0;
  uint64_t astar_rejects = 0;
  uint64_t residual_rejects = 0;
  const uint64_t fallbacks_before = ContractTieFallbacks();
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    TieGraph t(seed);
    graph::Graph& g = t.g;
    graph::RelayContraction base;
    base.Build(g, TieGraph::kKept);
    graph::ResidualContraction residual;
    residual.Reset(base);
    graph::DijkstraWorkspace ws;
    graph::DijkstraWorkspace exact;
    graph::ShortestPathTree tree;
    graph::Path path;
    std::vector<graph::NodeId> targets(TieGraph::kKept);
    for (graph::NodeId n = 0; n < TieGraph::kKept; ++n) {
      targets[static_cast<size_t>(n)] = n;
    }
    for (graph::NodeId src = 0; src < TieGraph::kKept; ++src) {
      const std::string at = "seed " + std::to_string(seed) + " src " +
                             std::to_string(src);
      tree.Build(base, src, targets, ws);
      for (const graph::NodeId dst : targets) {
        if (dst != src && tree.DistanceTo(dst) < graph::kInfDistance) {
          ++chains;
          tree_rejects += ExpandMatchesReference(
              base, g, src, dst, ws, at + " tree dst " + std::to_string(dst), &path);
        }
      }
      for (const graph::NodeId dst : targets) {
        if (dst == src) {
          continue;
        }
        // Half the exact distance to dst (the contraction is symmetric):
        // strictly admissible, and it settles nodes in another order
        // than Dijkstra does. Bans only lengthen distances, so it stays
        // so on every residual graph.
        graph::RunDijkstra(base, dst, exact, [](graph::NodeId) { return false; });
        std::vector<double> potential(TieGraph::kKept);
        for (graph::NodeId n = 0; n < TieGraph::kKept; ++n) {
          potential[static_cast<size_t>(n)] = 0.5 * exact.DistanceOf(n);
        }
        const auto h = [&potential](graph::NodeId n) {
          return potential[static_cast<size_t>(n)];
        };
        const std::string what = at + " dst " + std::to_string(dst);
        if (graph::RunAStar(base, src, dst, ws, h)) {
          ++chains;
          astar_rejects +=
              ExpandMatchesReference(base, g, src, dst, ws, what + " A*", &path);
        }
        // The greedy k = 4 loop of KEdgeDisjointShortestPaths, checked
        // after each ban.
        residual.ClearBans();
        std::vector<graph::EdgeId> disabled;
        for (int k = 0; k < 4 && graph::RunAStar(residual, src, dst, ws, h); ++k) {
          ++chains;
          residual_rejects += ExpandMatchesReference(
              residual, g, src, dst, ws, what + " path " + std::to_string(k), &path);
          for (const graph::EdgeId e : path.edges) {
            g.SetEnabled(e, false);
            disabled.push_back(e);
          }
          residual.Ban(path.edges);
        }
        for (const graph::EdgeId e : disabled) {
          g.SetEnabled(e, true);
        }
      }
    }
  }
  // The deltas summed: the row check reran exactly the reference's
  // rejects, and each way of leaving a chain met ties it rejects.
  const uint64_t rejects = tree_rejects + astar_rejects + residual_rejects;
  EXPECT_EQ(ContractTieFallbacks() - fallbacks_before, rejects);
  EXPECT_GT(tree_rejects, 0u);
  EXPECT_GT(astar_rejects, 0u);
  EXPECT_GT(residual_rejects, 0u);
  EXPECT_LT(rejects, chains);
}

// Sixteen slots, so that 13 workers all take some.
TEST(ContractedDisjointPaths, ThroughputSweepThreadInvariant) {
  const std::vector<CityPair> pairs = Pairs();
  SnapshotSchedule schedule;
  schedule.step_sec = 300.0;
  schedule.duration_sec = 16.0 * schedule.step_sec;
  ASSERT_EQ(schedule.Times().size(), 16u);
  for (const ConnectivityMode mode : kModes) {
    const auto sweep = [&] { return RunThroughputSweep(Model(mode), pairs, 4, schedule); };
    const std::vector<ThroughputResult> one = WithThreads("1", sweep);
    for (const char* threads : {"4", "13"}) {
      const std::vector<ThroughputResult> many = WithThreads(threads, sweep);
      ASSERT_EQ(many.size(), one.size());
      for (size_t s = 0; s < one.size(); ++s) {
        EXPECT_TRUE(BitEq(many[s].total_gbps, one[s].total_gbps))
            << ToString(mode) << " threads " << threads << " slot " << s;
        EXPECT_EQ(many[s].subflows, one[s].subflows);
        EXPECT_EQ(many[s].pairs_routed, one[s].pairs_routed);
        EXPECT_TRUE(BitEq(many[s].mean_paths_per_pair, one[s].mean_paths_per_pair));
      }
    }
  }
}

}  // namespace
}  // namespace leosim::core
