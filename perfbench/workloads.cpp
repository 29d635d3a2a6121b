#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "air/traffic_model.hpp"
#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/net_trace.hpp"
#include "core/network_builder.hpp"
#include "core/routing_tiers.hpp"
#include "core/scenario.hpp"
#include "core/temporal_sweep.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "data/city_catalog.hpp"
#include "flow/flow_network.hpp"
#include "flow/maxmin.hpp"
#include "geo/coordinates.hpp"
#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/sssp_tree.hpp"
#include "ground/relay_grid.hpp"
#include "link/radio.hpp"

namespace leobench {

namespace {

using leosim::core::CityPair;
using leosim::core::NetworkModel;
using leosim::core::NetworkOptions;
using leosim::core::SnapshotSchedule;
using leosim::core::SourceGroup;
using leosim::graph::NodeId;
using Snapshot = leosim::core::NetworkModel::Snapshot;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];  // lower median: stays a count
}

SnapshotSchedule MakeSchedule(int slots, double step_sec) {
  SnapshotSchedule schedule;
  schedule.step_sec = step_sec;
  schedule.duration_sec = step_sec * slots;
  return schedule;
}

// Inputs and models every workload builds in Setup. Traced setup also
// runs the relay grid and the air-traffic model on their own, so their
// cost shows as a layer; the NetworkModel constructor builds both again
// internally.
struct ModelInputs {
  std::vector<leosim::data::City> cities;
  std::vector<CityPair> pairs;

  void Build(SpanRecorder* spans, int num_cities, int num_pairs, double spacing_deg,
             uint64_t seed) {
    {
      const Span span(spans, "data.cities");
      cities = num_cities > 0 ? leosim::data::GenerateWorldCities(num_cities, seed)
                              : leosim::data::AnchorCities();
    }
    {
      const Span span(spans, "core.pairs");
      leosim::core::TrafficMatrixOptions traffic;
      traffic.num_pairs = num_pairs;
      traffic.seed = seed;
      pairs = leosim::core::SampleCityPairs(cities, traffic);
    }
    if (spans != nullptr) {
      {
        const Span span(spans, "ground.relay_grid");
        leosim::ground::RelayGridConfig grid;
        grid.spacing_deg = spacing_deg;
        const auto relays = leosim::ground::BuildRelayGrid(cities, grid);
        (void)relays;
      }
      {
        const Span span(spans, "air.model");
        const leosim::air::AirTrafficModel air(1.0, seed);
        (void)air;
      }
    }
  }
};

std::unique_ptr<NetworkModel> MakeModel(SpanRecorder* spans, const ModelInputs& in,
                                        leosim::core::ConnectivityMode mode,
                                        double spacing_deg, uint64_t seed) {
  const Span span(spans, "core.model");
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = spacing_deg;
  options.use_aircraft = true;
  options.seed = seed;
  return std::make_unique<NetworkModel>(leosim::core::Scenario::Starlink(), options,
                                        in.cities);
}

// Search scratch for the per-slot pair router.
struct RouteScratch {
  leosim::graph::DijkstraWorkspace dijkstra;
  leosim::graph::ShortestPathTree tree;
  std::vector<int> labels;
  std::vector<NodeId> stack;
  std::vector<NodeId> targets;
  std::vector<int> target_pairs;
};

// One slot's answers: RTT per pair (+inf when unreachable) and, when
// asked for, each routed pair's sorted path node set.
struct SlotRoutes {
  std::vector<double> rtt;
  std::vector<std::vector<NodeId>> nodes;
};

// Sizes one replay worker saw and whether its results matched the
// study's.
struct ReplaySamples {
  std::vector<double> nodes;  // per snapshot
  std::vector<double> edges;
  std::vector<double> links;  // per flow allocation
  std::vector<double> flows;
  bool same{true};

  void Append(const ReplaySamples& other) {
    nodes.insert(nodes.end(), other.nodes.begin(), other.nodes.end());
    edges.insert(edges.end(), other.edges.begin(), other.edges.end());
    links.insert(links.end(), other.links.begin(), other.links.end());
    flows.insert(flows.end(), other.flows.begin(), other.flows.end());
    same = same && other.same;
  }
};

// One replay worker's recorder, tallies and scratch.
struct ReplayWorker {
  SpanRecorder spans;
  Counts counts;
  Checks fidelity;
  ReplaySamples samples;
  NetworkModel::SnapshotWorkspace ws;
  RouteScratch rs;
  SlotRoutes routes;
};

// The latency and churn studies' routing tiers (core/routing_tiers.hpp),
// call for call: component precheck, one multi-target tree per source
// with at least kTreeBatchThreshold reachable destinations, goal-directed
// A* for the rest.
void RouteSlot(const Snapshot& snap, const std::vector<CityPair>& pairs,
               const std::vector<SourceGroup>& groups, bool want_nodes, int slot,
               ReplayWorker* w, SlotRoutes* out) {
  SpanRecorder* spans = &w->spans;
  RouteScratch* rs = &w->rs;
  const Span route_span(spans, "graph.route", slot);
  out->rtt.assign(pairs.size(), kInf);
  out->nodes.assign(want_nodes ? pairs.size() : 0, {});
  const auto keep_nodes = [&](int pair, const leosim::graph::Path& path) {
    if (want_nodes) {
      std::vector<NodeId>& sorted = out->nodes[static_cast<size_t>(pair)];
      sorted = path.nodes;
      std::sort(sorted.begin(), sorted.end());
    }
  };
  {
    const Span span(spans, "graph.components", slot);
    leosim::graph::ConnectedComponentsInto(snap.graph, &rs->labels, &rs->stack);
  }
  for (const SourceGroup& group : groups) {
    const NodeId src = snap.CityNode(group.src_city);
    const int src_label = rs->labels[static_cast<size_t>(src)];
    rs->targets.clear();
    rs->target_pairs.clear();
    for (const int i : group.pair_indices) {
      const NodeId dst = snap.CityNode(pairs[static_cast<size_t>(i)].b);
      if (rs->labels[static_cast<size_t>(dst)] == src_label) {
        rs->targets.push_back(dst);
        rs->target_pairs.push_back(i);
      }
    }
    if (rs->targets.size() >= leosim::core::kTreeBatchThreshold) {
      const Span span(spans, "graph.tree", slot);
      rs->tree.Build(snap.graph, src, rs->targets, rs->dijkstra);
      w->counts["graph.tree.builds"] += 1;
      for (size_t j = 0; j < rs->targets.size(); ++j) {
        const int pair = rs->target_pairs[j];
        out->rtt[static_cast<size_t>(pair)] = 2.0 * rs->tree.DistanceTo(rs->targets[j]);
        if (want_nodes) {
          keep_nodes(pair, *rs->tree.PathTo(rs->targets[j]));
        }
      }
      continue;
    }
    for (size_t j = 0; j < rs->targets.size(); ++j) {
      const Span span(spans, "graph.astar", slot);
      const NodeId dst = rs->targets[j];
      const leosim::geo::Vec3 dst_pos = snap.node_ecef[static_cast<size_t>(dst)];
      const auto potential = [&snap, &dst_pos](NodeId n) {
        return leosim::core::EuclideanLatencyPotential(snap.node_ecef, n, dst_pos);
      };
      const auto path =
          leosim::graph::ShortestPathAStar(snap.graph, src, dst, rs->dijkstra, potential);
      w->counts["graph.astar.queries"] += 1;
      if (path.has_value()) {
        out->rtt[static_cast<size_t>(rs->target_pairs[j])] = 2.0 * path->distance;
        keep_nodes(rs->target_pairs[j], *path);
      }
    }
  }
}

// Runs body(worker) on `threads` threads and joins them all.
template <typename Body>
void ParallelWorkers(int threads, const Body& body) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&body, w] { body(w); });
  }
  for (std::thread& t : workers) {
    t.join();
  }
}

// Replays slots [0, slots) on `threads` workers that claim them in
// order, as the study's sweep does, so layers see the same contention.
// Each worker records into its own recorder; after the join their spans
// are merged under a `replay.parallel` span (the caller's wait) and
// their counts, checks and samples are summed. Destroying the workers
// flushes their Dijkstra work counters.
template <typename Body>
ReplaySamples ReplaySlots(int slots, int threads, SpanRecorder* spans, Counts* counts,
                          Checks* fidelity, const Body& body) {
  std::vector<std::unique_ptr<ReplayWorker>> workers;
  for (int w = 0; w < threads; ++w) {
    workers.push_back(std::make_unique<ReplayWorker>());
  }
  std::atomic<int> next{0};
  const int parallel = spans->Begin("replay.parallel", -1);
  ParallelWorkers(threads, [&](int id) {
    ReplayWorker& w = *workers[static_cast<size_t>(id)];
    const Span worker_span(&w.spans, "replay.worker");
    for (int slot = next++; slot < slots; slot = next++) {
      const Span slot_span(&w.spans, "slot", slot);
      body(slot, &w);
    }
  });
  spans->End(parallel);
  ReplaySamples all;
  for (const std::unique_ptr<ReplayWorker>& w : workers) {
    spans->Adopt(w->spans, parallel);
    for (const auto& [name, value] : w->counts) {
      (*counts)[name] += value;
    }
    fidelity->Merge(w->fidelity);
    all.Append(w->samples);
  }
  return all;
}

// Builds one snapshot with the study's call. Its propagation, index and
// visibility phases are timed by the library's own obs spans, which the
// traced run reads back (leobench.cpp).
Snapshot& TimedBuildSnapshot(const NetworkModel& model, double time_sec, int slot,
                              ReplayWorker* w) {
  Snapshot* snap = nullptr;
  {
    const Span span(&w->spans, "core.snapshot", slot);
    snap = &model.BuildSnapshot(time_sec, &w->ws);
  }
  w->samples.nodes.push_back(snap->NumNodes());
  w->samples.edges.push_back(snap->graph.NumEdges());
  return *snap;
}

// ---------------------------------------------------------------------
// fig2_paper_grid: RunLatencyStudy, bent-pipe and hybrid, 0.5 deg relays.

class PaperGridWorkload : public Workload {
 public:
  explicit PaperGridWorkload(const RunConfig& config)
      : config_(config),
        num_cities_(config.tiny ? 80 : 1000),
        num_pairs_(config.tiny ? 20 : 1000),
        spacing_deg_(config.tiny ? 5.0 : 0.5),
        slots_(config.threads),  // one slot per worker
        schedule_(MakeSchedule(slots_, 900.0)) {}

  void Setup(SpanRecorder* spans) override {
    inputs_.Build(spans, num_cities_, num_pairs_, spacing_deg_, config_.seed);
    bp_ = MakeModel(spans, inputs_, leosim::core::ConnectivityMode::kBentPipe,
                    spacing_deg_, config_.seed);
    hybrid_ = MakeModel(spans, inputs_, leosim::core::ConnectivityMode::kHybrid,
                        spacing_deg_, config_.seed);
  }

  void RunStudy() override {
    result_ = leosim::core::RunLatencyStudy(*bp_, *hybrid_, inputs_.pairs, schedule_);
    if (!reference_.has_value()) {
      reference_ = result_;
    }
  }

  void Check(Checks* checks) override {
    const int sampled = static_cast<int>(config_.seed % static_cast<uint64_t>(slots_));
    if (config_.corrupt == "rtt") {
      for (leosim::core::PairRttSeries& s : result_.hybrid) {
        double& rtt = s.rtt_ms[static_cast<size_t>(sampled)];
        if (rtt != kInf) {
          rtt = std::nextafter(rtt, kInf);
          break;
        }
      }
    }
    checks->Expect(SameSeries(result_, *reference_),
                   "latency: every call reproduces the first call's RTTs");

    // Per pair-slot: ISLs only add paths, so hybrid RTT <= bent-pipe RTT;
    // no path beats light along the straight chord between the cities.
    const std::vector<leosim::data::City>& cities = hybrid_->cities();
    for (size_t i = 0; i < inputs_.pairs.size(); ++i) {
      const CityPair& p = inputs_.pairs[i];
      const double chord_rtt_ms =
          2.0 * leosim::link::PropagationLatencyMs(
                    leosim::geo::GeodeticToEcef(cities[static_cast<size_t>(p.a)].Coord()),
                    leosim::geo::GeodeticToEcef(cities[static_cast<size_t>(p.b)].Coord()));
      for (int s = 0; s < slots_; ++s) {
        const double h = result_.hybrid[i].rtt_ms[static_cast<size_t>(s)];
        const double b = result_.bp[i].rtt_ms[static_cast<size_t>(s)];
        const bool ok = h <= b && (h == kInf || h >= chord_rtt_ms) &&
                        (b == kInf || b >= chord_rtt_ms);
        checks->Expect(ok, "latency: pair " + std::to_string(i) + " slot " +
                               std::to_string(s) +
                               " violates hybrid <= bent-pipe or the chord bound");
      }
    }

    // Sampled slot: fresh builds of both models and plain Dijkstra for
    // every pair must reproduce the study's RTTs bit for bit.
    const double t = result_.snapshot_times[static_cast<size_t>(sampled)];
    const Snapshot bp_snap = bp_->BuildSnapshot(t);
    const Snapshot hybrid_snap = hybrid_->BuildSnapshot(t);
    const size_t n = inputs_.pairs.size();
    std::vector<double> bp_rtt(n, kInf);
    std::vector<double> hybrid_rtt(n, kInf);
    ParallelWorkers(config_.threads, [&](int w) {
      leosim::graph::DijkstraWorkspace ws;
      for (size_t i = static_cast<size_t>(w); i < n; i += static_cast<size_t>(config_.threads)) {
        const CityPair& p = inputs_.pairs[i];
        for (const auto& [snap, out] :
             {std::pair{&bp_snap, &bp_rtt}, std::pair{&hybrid_snap, &hybrid_rtt}}) {
          const auto path = leosim::graph::ShortestPath(
              snap->graph, snap->CityNode(p.a), snap->CityNode(p.b), ws);
          (*out)[i] = path.has_value() ? 2.0 * path->distance : kInf;
        }
      }
    });
    for (size_t i = 0; i < n; ++i) {
      checks->Expect(BitEqual(bp_rtt[i], result_.bp[i].rtt_ms[static_cast<size_t>(sampled)]),
                     "latency: bent-pipe RTT of pair " + std::to_string(i) +
                         " differs from a fresh Dijkstra");
      checks->Expect(
          BitEqual(hybrid_rtt[i], result_.hybrid[i].rtt_ms[static_cast<size_t>(sampled)]),
          "latency: hybrid RTT of pair " + std::to_string(i) +
              " differs from a fresh Dijkstra");
    }
  }

  void Replay(SpanRecorder* spans, Counts* counts, Checks* fidelity) override {
    const std::vector<SourceGroup> groups =
        leosim::core::GroupPairsBySource(inputs_.pairs);
    const bool shared = leosim::core::CanDeriveBentPipeByMasking(*bp_, *hybrid_);
    const ReplaySamples samples = ReplaySlots(
        slots_, config_.threads, spans, counts, fidelity, [&](int slot, ReplayWorker* w) {
          const auto route = [&](const Snapshot& snap,
                                 const std::vector<leosim::core::PairRttSeries>& study) {
            RouteSlot(snap, inputs_.pairs, groups, false, slot, w, &w->routes);
            for (size_t i = 0; i < w->routes.rtt.size(); ++i) {
              w->samples.same = w->samples.same &&
                                BitEqual(w->routes.rtt[i],
                                         study[i].rtt_ms[static_cast<size_t>(slot)]);
            }
          };
          const double t = result_.snapshot_times[static_cast<size_t>(slot)];
          if (!shared) {
            route(TimedBuildSnapshot(*bp_, t, slot, w), result_.bp);
            route(TimedBuildSnapshot(*hybrid_, t, slot, w), result_.hybrid);
            return;
          }
          // The study's shared build: bent-pipe answers come from the
          // hybrid snapshot with its ISL edges disabled.
          Snapshot& snap = TimedBuildSnapshot(*hybrid_, t, slot, w);
          route(snap, result_.hybrid);
          for (const leosim::graph::EdgeId e : snap.isl_edges) {
            snap.graph.SetEnabled(e, false);
          }
          route(snap, result_.bp);
          for (const leosim::graph::EdgeId e : snap.isl_edges) {
            snap.graph.SetEnabled(e, true);
          }
        });
    fidelity->Expect(samples.same, "replay RTTs match the study's");
    (*counts)["core.snapshot.nodes"] = MedianOf(samples.nodes);
    (*counts)["core.snapshot.edges"] = MedianOf(samples.edges);
  }

 private:
  // RTTs are non-negative or +inf, so == on them is bit equality.
  static bool SameSeries(const leosim::core::LatencyStudyResult& a,
                         const leosim::core::LatencyStudyResult& b) {
    const auto same = [](const std::vector<leosim::core::PairRttSeries>& x,
                         const std::vector<leosim::core::PairRttSeries>& y) {
      return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                        [](const auto& p, const auto& q) { return p.rtt_ms == q.rtt_ms; });
    };
    return same(a.bp, b.bp) && same(a.hybrid, b.hybrid);
  }

  RunConfig config_;
  int num_cities_;
  int num_pairs_;
  double spacing_deg_;
  int slots_;
  SnapshotSchedule schedule_;
  ModelInputs inputs_;
  std::unique_ptr<NetworkModel> bp_;
  std::unique_ptr<NetworkModel> hybrid_;
  leosim::core::LatencyStudyResult result_;
  std::optional<leosim::core::LatencyStudyResult> reference_;
};

// ---------------------------------------------------------------------
// fig4_multipath: RunThroughputSweep at k = 4, hybrid and bent-pipe.

constexpr int kDisjointPaths = 4;

// The throughput study's flow network: one link per graph edge, same id,
// pooled capacity (CapacityModel::kSharedPerLink).
leosim::flow::FlowNetwork LinksOf(const Snapshot& snap) {
  leosim::flow::FlowNetwork net;
  for (leosim::graph::EdgeId e = 0; e < snap.graph.NumEdges(); ++e) {
    net.AddLink(snap.graph.Edge(e).capacity);
  }
  return net;
}

bool WithinCapacity(const leosim::flow::FlowNetwork& net,
                    const leosim::flow::Allocation& alloc) {
  std::vector<double> load(static_cast<size_t>(net.NumLinks()), 0.0);
  for (leosim::flow::FlowId f = 0; f < net.NumFlows(); ++f) {
    for (const leosim::flow::LinkId l : net.FlowLinks(f)) {
      load[static_cast<size_t>(l)] += alloc.flow_rate_gbps[static_cast<size_t>(f)];
    }
  }
  for (leosim::flow::LinkId l = 0; l < net.NumLinks(); ++l) {
    const double cap = net.LinkCapacity(l);
    if (load[static_cast<size_t>(l)] > cap * (1.0 + 1e-9)) {
      return false;
    }
  }
  return true;
}

class MultipathWorkload : public Workload {
 public:
  explicit MultipathWorkload(const RunConfig& config)
      : config_(config),
        num_cities_(config.tiny ? 80 : 1000),
        // 250 pairs, not fig2's 1,000: a call then takes about 4 s, so a
        // run times several calls, and disjoint paths still take most of
        // each slot.
        num_pairs_(config.tiny ? 20 : 250),
        spacing_deg_(config.tiny ? 5.0 : 1.0),
        slots_(config.threads),  // one slot per worker and mode
        schedule_(MakeSchedule(slots_, 900.0)) {}

  void Setup(SpanRecorder* spans) override {
    inputs_.Build(spans, num_cities_, num_pairs_, spacing_deg_, config_.seed);
    models_[0] = MakeModel(spans, inputs_, leosim::core::ConnectivityMode::kHybrid,
                           spacing_deg_, config_.seed);
    models_[1] = MakeModel(spans, inputs_, leosim::core::ConnectivityMode::kBentPipe,
                           spacing_deg_, config_.seed);
  }

  void RunStudy() override {
    for (int m = 0; m < 2; ++m) {
      results_[m] = leosim::core::RunThroughputSweep(*models_[m], inputs_.pairs,
                                                     kDisjointPaths, schedule_);
    }
    if (!reference_.has_value()) {
      reference_ = results_;
    }
  }

  void Check(Checks* checks) override {
    const int sampled = static_cast<int>(config_.seed % static_cast<uint64_t>(slots_));
    if (config_.corrupt == "gbps") {
      double& total = results_[0][static_cast<size_t>(sampled)].total_gbps;
      total = std::nextafter(total, kInf);
    }
    for (int m = 0; m < 2; ++m) {
      for (int s = 0; s < slots_; ++s) {
        const leosim::core::ThroughputResult& r = results_[m][static_cast<size_t>(s)];
        const leosim::core::ThroughputResult& ref =
            (*reference_)[m][static_cast<size_t>(s)];
        checks->Expect(r.pairs_routed > 0 && std::isfinite(r.total_gbps) &&
                           r.total_gbps > 0.0 && BitEqual(r.total_gbps, ref.total_gbps) &&
                           r.subflows == ref.subflows,
                       std::string("throughput: ") + kModeNames[m] + " slot " +
                           std::to_string(s) + " is empty or differs from the first call");
      }
    }

    // Sampled slot, one thread per mode: from-scratch disjoint paths for
    // every pair plus a fresh allocation must give the study's total bit
    // for bit, within capacity on every link.
    const double t = schedule_.step_sec * sampled;
    bool same[2] = {false, false};
    bool within[2] = {false, false};
    ParallelWorkers(2, [&](int m) {
      Snapshot snap = models_[m]->BuildSnapshot(t);
      leosim::flow::FlowNetwork net = LinksOf(snap);
      leosim::graph::DijkstraWorkspace ws;
      for (const CityPair& p : inputs_.pairs) {
        const std::vector<leosim::graph::Path> paths =
            leosim::graph::KEdgeDisjointShortestPaths(
                snap.graph, snap.CityNode(p.a), snap.CityNode(p.b), kDisjointPaths, ws);
        for (const leosim::graph::Path& path : paths) {
          net.AddFlow({path.edges.begin(), path.edges.end()});
        }
      }
      const leosim::flow::Allocation alloc = leosim::flow::MaxMinFairAllocate(net);
      same[m] = BitEqual(alloc.total_gbps,
                         results_[m][static_cast<size_t>(sampled)].total_gbps);
      within[m] = WithinCapacity(net, alloc);
    });
    for (int m = 0; m < 2; ++m) {
      checks->Expect(same[m], std::string("throughput: ") + kModeNames[m] +
                                  " total differs from from-scratch disjoint paths");
      checks->Expect(within[m], std::string("throughput: ") + kModeNames[m] +
                                    " allocation exceeds a link's capacity");
    }
  }

  void Replay(SpanRecorder* spans, Counts* counts, Checks* fidelity) override {
    const std::vector<SourceGroup> groups =
        leosim::core::GroupPairsBySource(inputs_.pairs);
    ReplaySamples samples;
    for (int m = 0; m < 2; ++m) {
      const Span mode_span(spans, m == 0 ? "replay.hybrid" : "replay.bp");
      samples.Append(ReplaySlots(slots_, config_.threads, spans, counts, fidelity,
                                 [&](int slot, ReplayWorker* w) {
                                   ReplaySlot(m, slot, groups, w);
                                 }));
    }
    fidelity->Expect(samples.same, "replay throughput totals match the study's");
    (*counts)["core.snapshot.nodes"] = MedianOf(samples.nodes);
    (*counts)["core.snapshot.edges"] = MedianOf(samples.edges);
    (*counts)["flow.links"] = MedianOf(samples.links);
    (*counts)["flow.flows"] = MedianOf(samples.flows);
  }

 private:
  // The throughput study's slot, call for call: first paths from one
  // tree per source over its reachable targets, k-1 more disjoint paths
  // per pair, then one max-min allocation over every sub-flow.
  void ReplaySlot(int m, int slot, const std::vector<SourceGroup>& groups,
                  ReplayWorker* w) const {
    SpanRecorder* spans = &w->spans;
    RouteScratch& rs = w->rs;
    Snapshot& snap = TimedBuildSnapshot(*models_[m], schedule_.step_sec * slot, slot, w);
    std::optional<leosim::flow::FlowNetwork> net;
    {
      const Span span(spans, "flow.network", slot);
      net.emplace(LinksOf(snap));
    }
    std::vector<leosim::graph::Path> first(inputs_.pairs.size());
    {
      const Span route_span(spans, "graph.route", slot);
      {
        const Span span(spans, "graph.components", slot);
        leosim::graph::ConnectedComponentsInto(snap.graph, &rs.labels, &rs.stack);
      }
      for (const SourceGroup& group : groups) {
        const NodeId src = snap.CityNode(group.src_city);
        const int src_label = rs.labels[static_cast<size_t>(src)];
        rs.targets.clear();
        rs.target_pairs.clear();
        for (const int i : group.pair_indices) {
          const NodeId dst = snap.CityNode(inputs_.pairs[static_cast<size_t>(i)].b);
          if (rs.labels[static_cast<size_t>(dst)] == src_label) {
            rs.targets.push_back(dst);
            rs.target_pairs.push_back(i);
          }
        }
        if (rs.targets.empty()) {
          continue;
        }
        const Span span(spans, "graph.tree", slot);
        rs.tree.Build(snap.graph, src, rs.targets, rs.dijkstra);
        w->counts["graph.tree.builds"] += 1;
        for (size_t j = 0; j < rs.targets.size(); ++j) {
          first[static_cast<size_t>(rs.target_pairs[j])] =
              std::move(*rs.tree.PathTo(rs.targets[j]));
        }
      }
    }
    for (leosim::graph::Path& path : first) {
      if (path.nodes.empty()) {
        continue;
      }
      std::vector<leosim::graph::Path> paths;
      {
        const Span span(spans, "graph.disjoint", slot);
        paths = leosim::graph::KEdgeDisjointShortestPaths(snap.graph, std::move(path),
                                                          kDisjointPaths, rs.dijkstra);
      }
      w->counts["graph.disjoint.paths"] += static_cast<double>(paths.size());
      for (const leosim::graph::Path& p : paths) {
        net->AddFlow({p.edges.begin(), p.edges.end()});
      }
    }
    w->samples.links.push_back(net->NumLinks());
    w->samples.flows.push_back(net->NumFlows());
    leosim::flow::Allocation alloc;
    {
      const Span span(spans, "flow.maxmin", slot);
      alloc = leosim::flow::MaxMinFairAllocate(*net);
    }
    w->samples.same = w->samples.same &&
                      BitEqual(alloc.total_gbps,
                               results_[m][static_cast<size_t>(slot)].total_gbps);
  }

  static constexpr const char* kModeNames[2] = {"hybrid", "bent-pipe"};

  RunConfig config_;
  int num_cities_;
  int num_pairs_;
  double spacing_deg_;
  int slots_;
  SnapshotSchedule schedule_;
  ModelInputs inputs_;
  std::unique_ptr<NetworkModel> models_[2];  // hybrid, bent-pipe
  std::array<std::vector<leosim::core::ThroughputResult>, 2> results_;
  std::optional<std::array<std::vector<leosim::core::ThroughputResult>, 2>> reference_;
};

// ---------------------------------------------------------------------
// trace_fine: the `leosim_cli trace` pipeline — churn sweep with the
// network-state recorder on, in-process replay validation, file export.

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

class TraceWorkload : public Workload {
 public:
  explicit TraceWorkload(const RunConfig& config)
      : config_(config),
        num_pairs_(config.tiny ? 20 : 100),
        spacing_deg_(config.tiny ? 5.0 : 3.0),
        slots_(config.tiny ? 8 : 60),
        schedule_(MakeSchedule(slots_, 10.0)),
        dir_(config.out_dir + "/trace_fine") {}

  void Setup(SpanRecorder* spans) override {
    inputs_.Build(spans, 0, num_pairs_, spacing_deg_, config_.seed);
    model_ = MakeModel(spans, inputs_, leosim::core::ConnectivityMode::kHybrid,
                       spacing_deg_, config_.seed);
  }

  void RunStudy() override {
    leosim::core::NetTraceRecorder& recorder = leosim::core::NetTraceRecorder::Global();
    recorder.Reset();
    recorder.Enable(true);
    leosim::core::RunAggregateChurnStudy(*model_, inputs_.pairs, schedule_);
    std::string why;
    const bool valid = recorder.ValidateReplay(&why);
    const bool written = recorder.WriteTo(dir_);
    ++calls_;
    if (!valid || !written) {
      ++bad_calls_;
      if (last_problem_.empty()) {
        last_problem_ = valid ? "cannot write " + dir_ : "replay validation: " + why;
      }
    }
    netstate_bytes_ = FileBytes(dir_ + "/netstate.jsonl");
    netevents_bytes_ = FileBytes(dir_ + "/netevents.jsonl");
    if (first_bytes_.first == 0) {
      first_bytes_ = {netstate_bytes_, netevents_bytes_};
    }
  }

  void Check(Checks* checks) override {
    // One check per call: its in-process replay validated and its files
    // were written.
    for (int c = 0; c < calls_; ++c) {
      checks->Expect(c >= bad_calls_, "trace: " + last_problem_);
    }
    checks->Expect(netstate_bytes_ > 0 && netevents_bytes_ > 0 &&
                       first_bytes_ == std::pair{netstate_bytes_, netevents_bytes_},
                   "trace: files are empty or differ in size from the first call's");
    if (config_.corrupt == "netevents") {
      DropMiddleLine(dir_ + "/netevents.jsonl");
    }
  }

  void Replay(SpanRecorder* spans, Counts* counts, Checks* fidelity) override {
    leosim::core::NetTraceRecorder& recorder = leosim::core::NetTraceRecorder::Global();
    recorder.Reset();
    recorder.Enable(true);
    const std::vector<double> times = schedule_.Times();
    recorder.SetTimeline(times);
    const std::vector<SourceGroup> groups =
        leosim::core::GroupPairsBySource(inputs_.pairs);
    std::vector<SlotRoutes> routes(times.size());
    const ReplaySamples samples = ReplaySlots(
        slots_, config_.threads, spans, counts, fidelity, [&](int slot, ReplayWorker* w) {
          const double t = times[static_cast<size_t>(slot)];
          const Snapshot& snap = TimedBuildSnapshot(*model_, t, slot, w);
          {
            // Distinct slots may be captured concurrently.
            const Span span(&w->spans, "core.net_trace.capture", slot);
            recorder.CaptureSlot(slot, t, snap);
          }
          RouteSlot(snap, inputs_.pairs, groups, true, slot, w,
                    &routes[static_cast<size_t>(slot)]);
        });
    {
      // The churn study's serial pass: a route_change event wherever a
      // pair's path node set differs from the previous slot's.
      const Span span(spans, "core.net_trace.events");
      for (size_t s = 1; s < routes.size(); ++s) {
        for (size_t i = 0; i < inputs_.pairs.size(); ++i) {
          const double rtt = routes[s].rtt[i];
          if (rtt != kInf && routes[s - 1].rtt[i] != kInf &&
              routes[s].nodes[i] != routes[s - 1].nodes[i]) {
            recorder.AddRouteChange(static_cast<int>(s), static_cast<int>(i), rtt,
                                    {routes[s].nodes[i].begin(), routes[s].nodes[i].end()});
          }
        }
      }
    }
    std::string why;
    bool valid = false;
    {
      const Span span(spans, "core.net_trace.validate");
      valid = recorder.ValidateReplay(&why);
    }
    fidelity->Expect(valid, "replay trace validates");
    std::string netstate;
    std::string netevents;
    {
      const Span span(spans, "core.net_trace.encode");
      netstate = recorder.NetStateJsonl();
      netevents = recorder.NetEventsJsonl();
    }
    bool written = false;
    {
      const Span span(spans, "core.net_trace.write");
      written = WriteFile(dir_ + "/replay_netstate.jsonl", netstate) &&
                WriteFile(dir_ + "/replay_netevents.jsonl", netevents);
    }
    fidelity->Expect(written, "replay trace written");
    fidelity->Expect(SameAsFile(dir_ + "/netstate.jsonl", netstate) &&
                         SameAsFile(dir_ + "/netevents.jsonl", netevents),
                     "replay trace is byte for byte the study's");
    std::remove((dir_ + "/replay_netstate.jsonl").c_str());
    std::remove((dir_ + "/replay_netevents.jsonl").c_str());
    recorder.Reset();
    (*counts)["core.snapshot.nodes"] = MedianOf(samples.nodes);
    (*counts)["core.snapshot.edges"] = MedianOf(samples.edges);
    (*counts)["core.net_trace.netstate_bytes"] = static_cast<double>(netstate.size());
    (*counts)["core.net_trace.netevents_bytes"] = static_cast<double>(netevents.size());
    (*counts)["trace_bytes_per_slot"] =
        static_cast<double>(netstate.size() + netevents.size()) / slots_;
  }

 private:
  static bool WriteFile(const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    return std::fclose(f) == 0 && written == body.size();
  }

  // Whether the file holds exactly `body`, read in chunks so a trace of
  // a hundred megabytes is not held twice.
  static bool SameAsFile(const std::string& path, const std::string& body) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> chunk(size_t{1} << 20);
    size_t offset = 0;
    while (in) {
      in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      const size_t got = static_cast<size_t>(in.gcount());
      if (got > body.size() - offset ||
          body.compare(offset, got, chunk.data(), got) != 0) {
        return false;
      }
      offset += got;
    }
    return in.eof() && offset == body.size();
  }

  // Self-test corruption: removes one event line from the exported file.
  static void DropMiddleLine(const std::string& path) {
    std::vector<std::string> lines;
    {
      std::ifstream in(path);
      for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
      }
    }
    if (lines.empty()) {
      return;
    }
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(lines.size() / 2));
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) {
      out << line << '\n';
    }
  }

  RunConfig config_;
  int num_pairs_;
  double spacing_deg_;
  int slots_;
  SnapshotSchedule schedule_;
  std::string dir_;
  ModelInputs inputs_;
  std::unique_ptr<NetworkModel> model_;
  int calls_{0};
  int bad_calls_{0};
  std::string last_problem_;
  uint64_t netstate_bytes_{0};
  uint64_t netevents_bytes_{0};
  std::pair<uint64_t, uint64_t> first_bytes_{0, 0};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config) {
  if (name == "fig2_paper_grid") {
    return std::make_unique<PaperGridWorkload>(config);
  }
  if (name == "fig4_multipath") {
    return std::make_unique<MultipathWorkload>(config);
  }
  if (name == "trace_fine") {
    return std::make_unique<TraceWorkload>(config);
  }
  return nullptr;
}

}  // namespace leobench
