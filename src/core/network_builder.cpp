#include "core/network_builder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "geo/geodesic.hpp"
#include "ground/relay_grid.hpp"
#include "link/gso.hpp"
#include "link/radio.hpp"
#include "link/visibility.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

// apply_gso_exclusion drops a radio link that points within Starlink's
// filed 22-degree separation of the GSO arc (paper §7), the arc sampled
// every 2 degrees of longitude.
constexpr double kGsoSeparationDeg = 22.0;
constexpr int kGsoArcSamples = 180;

struct SnapshotMetrics {
  obs::Counter& builds =
      obs::MetricsRegistry::Global().GetCounter("snapshot.builds");
  obs::Counter& radio_edges =
      obs::MetricsRegistry::Global().GetCounter("snapshot.radio_edges");
  obs::Counter& isl_edges =
      obs::MetricsRegistry::Global().GetCounter("snapshot.isl_edges");

  static SnapshotMetrics& Get() {
    static SnapshotMetrics metrics;
    return metrics;
  }
};

// Graph::ReserveEdges for a snapshot's edge-id lists: room for `n` ids,
// growing at least geometrically so slot-to-slot creep does not
// reallocate at every build.
void ReserveGeometric(std::vector<graph::EdgeId>* ids, size_t n) {
  if (ids->capacity() < n) {
    ids->reserve(std::max(n, 2 * ids->capacity()));
  }
}

}  // namespace

std::string_view ToString(ConnectivityMode mode) {
  switch (mode) {
    case ConnectivityMode::kBentPipe:
      return "bent-pipe";
    case ConnectivityMode::kHybrid:
      return "hybrid";
    case ConnectivityMode::kIslOnly:
      return "isl-only";
  }
  return "unknown";
}

void NetworkOptions::Validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("network options: ") + what);
    }
  };
  // Written so that NaN fails every check.
  require(std::isfinite(relay_spacing_deg) && relay_spacing_deg > 0.0,
          "relay_spacing_deg must be finite and > 0");
  require(std::isfinite(aircraft_scale) && aircraft_scale >= 0.0,
          "aircraft_scale must be finite and >= 0");
  require(max_gt_links_per_satellite >= 0,
          "max_gt_links_per_satellite must be >= 0");
}

NetworkModel::NetworkModel(const Scenario& scenario, const NetworkOptions& options,
                           std::vector<data::City> cities)
    : NetworkModel(scenario, options, std::move(cities), {}) {}

NetworkModel::NetworkModel(const Scenario& scenario, const NetworkOptions& options,
                           std::vector<data::City> cities,
                           const std::vector<orbit::OrbitalShell>& extra_shells)
    : scenario_(scenario), options_(options), cities_(std::move(cities)) {
  scenario_.Validate();
  options_.Validate();
  if (cities_.empty()) {
    throw std::invalid_argument("network model needs at least one city");
  }
  constellation_.AddShell(scenario_.shell);
  for (const orbit::OrbitalShell& shell : extra_shells) {
    constellation_.AddShell(shell);
  }
  Initialise();
}

void NetworkModel::Initialise() {
  if (options_.mode != ConnectivityMode::kBentPipe) {
    isl_pairs_ = orbit::PlusGridIslsAllShells(constellation_);
  }

  if (options_.mode != ConnectivityMode::kIslOnly) {
    const obs::Span span("ground.relay_grid");
    relays_ = ground::BuildRelayGrid(cities_, {.spacing_deg = options_.relay_spacing_deg});
  }

  if (options_.mode != ConnectivityMode::kIslOnly && options_.use_aircraft) {
    air_.emplace(options_.aircraft_scale, options_.seed);
  }

  city_ecef_.reserve(cities_.size());
  for (const data::City& c : cities_) {
    city_ecef_.push_back(geo::GeodeticToEcef(c.Coord()));
  }
  relay_ecef_.reserve(relays_.size());
  for (const geo::GeodeticCoord& r : relays_) {
    relay_ecef_.push_back(geo::GeodeticToEcef(r));
  }
}

NetworkModel::Snapshot NetworkModel::BuildSnapshot(double time_sec) const {
  SnapshotWorkspace workspace;
  BuildSnapshot(time_sec, &workspace);
  return std::move(workspace.snapshot);
}

NetworkModel::Snapshot& NetworkModel::BuildSnapshot(
    double time_sec, SnapshotWorkspace* workspace) const {
  SnapshotMetrics& metrics = SnapshotMetrics::Get();
  obs::TimeseriesRecorder& timeseries = obs::TimeseriesRecorder::Global();
  const obs::Span build_span("snapshot.build");
  metrics.builds.Increment();

  Snapshot& snap = workspace->snapshot;
  snap.node_ecef.clear();
  snap.radio_edges.clear();
  snap.isl_edges.clear();
  snap.num_sats = constellation_.NumSatellites();
  snap.num_cities = static_cast<int>(cities_.size());
  snap.num_relays = static_cast<int>(relays_.size());

  const std::vector<geo::Vec3>& sat_ecef = workspace->sat_ecef;
  int total_nodes = 0;
  {
    const obs::Span span("snapshot.propagate");
    constellation_.PositionsEcefInto(time_sec, &workspace->sat_ecef);

    snap.aircraft_coords.clear();
    if (air_.has_value()) {
      snap.aircraft_coords = air_->OverWaterPositions(time_sec);
    }
    snap.num_aircraft = static_cast<int>(snap.aircraft_coords.size());

    total_nodes =
        snap.num_sats + snap.num_cities + snap.num_relays + snap.num_aircraft;
    snap.graph.Reset(total_nodes);

    snap.node_ecef.reserve(static_cast<size_t>(total_nodes));
    snap.node_ecef.insert(snap.node_ecef.end(), sat_ecef.begin(), sat_ecef.end());
    snap.node_ecef.insert(snap.node_ecef.end(), city_ecef_.begin(), city_ecef_.end());
    snap.node_ecef.insert(snap.node_ecef.end(), relay_ecef_.begin(), relay_ecef_.end());
    for (const geo::GeodeticCoord& a : snap.aircraft_coords) {
      snap.node_ecef.push_back(geo::GeodeticToEcef(a));
    }
  }

  // Radio links: every ground node (city, relay, aircraft) to every
  // visible satellite, via the spatial index (rebuilt in place each
  // timestep — satellite positions move, the buckets' storage does not).
  {
    const obs::Span span("snapshot.index");
    double max_altitude = 0.0;
    for (int s = 0; s < constellation_.NumShells(); ++s) {
      max_altitude = std::max(max_altitude, constellation_.shell(s).altitude_km);
    }
    const double coverage =
        geo::CoverageRadiusKm(max_altitude, scenario_.radio.min_elevation_deg);
    workspace->sat_index.Rebuild(workspace->sat_ecef, coverage + 100.0);
  }

  const double gt_capacity = scenario_.radio.capacity_gbps;
  const int first_ground = snap.num_sats;

  // Stage candidate radio links terminal-major, then counting-sort them
  // satellite-major so a per-satellite beam budget can be enforced
  // (closest terminals win the contended beams). The sort is stable, so
  // within one satellite the candidates keep ascending-terminal order —
  // the same order the per-satellite grouping has always produced.
  using RadioCandidate = SnapshotWorkspace::RadioCandidate;
  std::vector<RadioCandidate>& candidates = workspace->candidates;
  candidates.clear();
  {
    const obs::Span span("snapshot.visibility");
    for (int g = first_ground; g < total_nodes; ++g) {
      const geo::Vec3& ground = snap.node_ecef[static_cast<size_t>(g)];
      // Fused batch query: the elevation test already computes each
      // passing link's slant range, and PropagationLatencyMs(range) is
      // bit-identical to the two-vector form it replaces. Per-terminal
      // candidate order is cell-scan order, which the stable
      // satellite-major counting sort below is insensitive to.
      workspace->sat_index.VisibleWithRangeInto(
          ground, scenario_.radio.min_elevation_deg, &workspace->visible,
          &workspace->visible_range_km);
      for (size_t k = 0; k < workspace->visible.size(); ++k) {
        const int sat = workspace->visible[k];
        if (options_.apply_gso_exclusion &&
            link::MinGsoArcSeparationDeg(ground, sat_ecef[static_cast<size_t>(sat)],
                                         kGsoArcSamples) < kGsoSeparationDeg) {
          continue;
        }
        const double latency_ms =
            link::PropagationLatencyMs(workspace->visible_range_km[k]);
        candidates.push_back({sat, g, latency_ms});
      }
    }
  }

  {
    const obs::Span graph_span("snapshot.graph");
    std::vector<int32_t>& offsets = workspace->candidate_offsets;
    offsets.assign(static_cast<size_t>(snap.num_sats) + 1, 0);
    for (const RadioCandidate& c : candidates) {
      ++offsets[static_cast<size_t>(c.sat) + 1];
    }
    for (size_t s = 1; s < offsets.size(); ++s) {
      offsets[s] += offsets[s - 1];
    }
    std::vector<RadioCandidate>& by_satellite = workspace->by_satellite;
    by_satellite.resize(candidates.size());
    // offsets[s] doubles as the fill cursor, then is restored by shifting.
    for (const RadioCandidate& c : candidates) {
      by_satellite[static_cast<size_t>(offsets[static_cast<size_t>(c.sat)]++)] =
          c;
    }
    for (size_t s = offsets.size() - 1; s > 0; --s) {
      offsets[s] = offsets[s - 1];
    }
    offsets[0] = 0;

    // Every candidate and ISL at most becomes one edge: size the edge
    // arrays once instead of growing them by doubling on a first build.
    // isl_pairs_ is empty under bent-pipe.
    snap.graph.ReserveEdges(candidates.size() + isl_pairs_.size());
    ReserveGeometric(&snap.radio_edges, candidates.size());
    ReserveGeometric(&snap.isl_edges, isl_pairs_.size());
    for (int sat = 0; sat < snap.num_sats; ++sat) {
      const auto begin =
          by_satellite.begin() + offsets[static_cast<size_t>(sat)];
      auto end = by_satellite.begin() + offsets[static_cast<size_t>(sat) + 1];
      if (options_.max_gt_links_per_satellite > 0 &&
          end - begin > options_.max_gt_links_per_satellite) {
        std::nth_element(begin, begin + options_.max_gt_links_per_satellite,
                         end,
                         [](const RadioCandidate& a, const RadioCandidate& b) {
                           return a.latency_ms < b.latency_ms;
                         });
        end = begin + options_.max_gt_links_per_satellite;
      }
      for (auto it = begin; it != end; ++it) {
        snap.radio_edges.push_back(
            snap.graph.AddEdge(sat, it->ground, it->latency_ms, gt_capacity));
      }
    }

    // Laser ISLs (+Grid, per shell).
    if (options_.mode != ConnectivityMode::kBentPipe) {
      const double isl_capacity = scenario_.isl.capacity_gbps;
      for (const orbit::IslEdge& e : isl_pairs_) {
        const double latency_ms =
            link::PropagationLatencyMs(sat_ecef[static_cast<size_t>(e.first)],
                                       sat_ecef[static_cast<size_t>(e.second)]);
        snap.isl_edges.push_back(
            snap.graph.AddEdge(e.first, e.second, latency_ms, isl_capacity));
      }
    }
    // Build the CSR adjacency now: the snapshot is about to be queried (and
    // possibly shared read-only across threads).
    snap.graph.FinalizeAdjacency();
  }

  metrics.radio_edges.Add(snap.radio_edges.size());
  metrics.isl_edges.Add(snap.isl_edges.size());
  if (timeseries.Enabled()) {
    // Keys carry the connectivity mode: studies that build both bent-pipe
    // and hybrid snapshots at the same t would otherwise interleave two
    // models' samples into one series.
    const std::string prefix = "snapshot." + std::string(ToString(options_.mode)) + ".";
    timeseries.Record(time_sec, prefix + "nodes",
                      static_cast<double>(total_nodes));
    timeseries.Record(time_sec, prefix + "radio_edges",
                      static_cast<double>(snap.radio_edges.size()));
    timeseries.Record(time_sec, prefix + "isl_edges",
                      static_cast<double>(snap.isl_edges.size()));
  }
  return snap;
}

int NetworkModel::CityIndex(const std::string& name) const {
  for (size_t i = 0; i < cities_.size(); ++i) {
    if (cities_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  throw std::invalid_argument("city not present in the model's city list: " + name);
}

geo::GeodeticCoord NetworkModel::GroundNodeCoord(const Snapshot& snapshot,
                                                 graph::NodeId node) const {
  if (snapshot.IsCity(node)) {
    return cities_[static_cast<size_t>(node - snapshot.num_sats)].Coord();
  }
  if (snapshot.IsRelay(node)) {
    return relays_[static_cast<size_t>(node - snapshot.num_sats - snapshot.num_cities)];
  }
  if (snapshot.IsAircraft(node)) {
    return snapshot.aircraft_coords[static_cast<size_t>(
        node - snapshot.num_sats - snapshot.num_cities - snapshot.num_relays)];
  }
  throw std::invalid_argument("node is a satellite, not a ground node");
}

}  // namespace leosim::core
