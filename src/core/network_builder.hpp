// Builds per-snapshot network graphs for the three connectivity modes the
// paper compares (§3):
//
//   kBentPipe — GT-satellite radio links only. Ground nodes are the city
//     GTs, a dense land relay grid, and over-water aircraft.
//   kHybrid   — bent-pipe connectivity PLUS +Grid laser ISLs.
//   kIslOnly  — city GTs and ISLs only (no relays/aircraft); used by the
//     attenuation study to isolate first/last-hop radio links.
//
// Nodes are laid out [satellites | cities | relays | aircraft]; edge
// weights are one-way propagation latencies in milliseconds and edge
// capacities are the scenario's link rates in Gbps (radio.capacity_gbps
// for GT-satellite links, isl.capacity_gbps for ISLs), so the same
// snapshot serves both the latency and the throughput experiments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "air/traffic_model.hpp"
#include "core/scenario.hpp"
#include "data/cities.hpp"
#include "geo/vec3.hpp"
#include "graph/graph.hpp"
#include "link/visibility.hpp"
#include "orbit/isl_grid.hpp"

namespace leosim::core {

enum class ConnectivityMode { kBentPipe, kHybrid, kIslOnly };

std::string_view ToString(ConnectivityMode mode);

struct NetworkOptions {
  ConnectivityMode mode{ConnectivityMode::kHybrid};
  // Relay grid spacing (no relays in kIslOnly mode; the radius is always
  // ground::RelayGridConfig's 2,000 km). Paper: 0.5 deg; benches scale it up.
  double relay_spacing_deg{0.5};
  // Aircraft relays (ignored in kIslOnly mode).
  bool use_aircraft{true};
  double aircraft_scale{1.0};
  // Optional GSO-arc exclusion applied to every radio link, at Starlink's
  // 22-degree separation (paper §7).
  bool apply_gso_exclusion{false};
  // Per-satellite beam budget: at most this many simultaneous GT links per
  // satellite, closest terminals first (paper §2 notes satellites serve
  // multiple GTs on different frequency bands — a finite resource).
  // 0 = unlimited (the paper's evaluation model).
  int max_gt_links_per_satellite{0};
  uint64_t seed{4242};

  // Throws std::invalid_argument naming the first bad field: a relay
  // spacing that is not finite and > 0, or an aircraft scale or beam
  // budget below 0 (or NaN). NetworkModel's constructors call it.
  void Validate() const;
  bool operator==(const NetworkOptions&) const = default;
};

class NetworkModel {
 public:
  struct Snapshot {
    graph::Graph graph;
    std::vector<geo::Vec3> node_ecef;
    int num_sats{0};
    int num_cities{0};
    int num_relays{0};
    int num_aircraft{0};
    std::vector<graph::EdgeId> radio_edges;
    std::vector<graph::EdgeId> isl_edges;
    // Geodetic positions of the aircraft nodes (over-water aircraft at
    // this snapshot's time), index-aligned with AircraftNode(i).
    std::vector<geo::GeodeticCoord> aircraft_coords;

    graph::NodeId SatNode(int i) const { return i; }
    graph::NodeId CityNode(int i) const { return num_sats + i; }
    graph::NodeId RelayNode(int i) const { return num_sats + num_cities + i; }
    graph::NodeId AircraftNode(int i) const {
      return num_sats + num_cities + num_relays + i;
    }
    bool IsSat(graph::NodeId n) const { return n < num_sats; }
    bool IsCity(graph::NodeId n) const {
      return n >= num_sats && n < num_sats + num_cities;
    }
    bool IsRelay(graph::NodeId n) const {
      return n >= num_sats + num_cities && n < num_sats + num_cities + num_relays;
    }
    bool IsAircraft(graph::NodeId n) const {
      return n >= num_sats + num_cities + num_relays;
    }
    int NumNodes() const { return static_cast<int>(node_ecef.size()); }
  };

  // Reusable buffers for BuildSnapshot. A loop over timesteps that passes
  // the same workspace back in reuses the snapshot's graph/ECEF storage,
  // the satellite spatial index, and the radio-link staging arrays, so
  // steady-state snapshot construction performs no allocation. One
  // workspace per thread; it must not be shared concurrently.
  class SnapshotWorkspace {
   public:
    SnapshotWorkspace() = default;

   private:
    friend class NetworkModel;
    // One ground terminal that can see `sat` (flat, counting-sorted into
    // satellite-major order to apply per-satellite beam budgets).
    struct RadioCandidate {
      int32_t sat;
      int32_t ground;
      double latency_ms;
    };
    Snapshot snapshot;
    std::vector<geo::Vec3> sat_ecef;  // PositionsEcefInto, reused per slot
    link::SatelliteIndex sat_index;
    std::vector<int> visible;                  // per-terminal query buffer
    std::vector<double> visible_range_km;      // slant ranges, parallel
    std::vector<RadioCandidate> candidates;    // terminal-major staging
    std::vector<RadioCandidate> by_satellite;  // satellite-major (sorted)
    std::vector<int32_t> candidate_offsets;    // per-satellite CSR offsets
  };

  // The model owns its city list (callers typically pass the output of
  // data::GenerateWorldCities). Both constructors throw
  // std::invalid_argument for a bad scenario or options (Scenario::Validate,
  // NetworkOptions::Validate) or an empty city list.
  NetworkModel(const Scenario& scenario, const NetworkOptions& options,
               std::vector<data::City> cities);

  // Constellation with one extra shell appended (used by the multishell
  // study); ISLs are built per shell, never across shells.
  NetworkModel(const Scenario& scenario, const NetworkOptions& options,
               std::vector<data::City> cities,
               const std::vector<orbit::OrbitalShell>& extra_shells);

  // Builds the snapshot into `workspace` and returns a reference to
  // workspace->snapshot (valid until the next build with that workspace).
  // Identical output to the value-returning overload below. The
  // reference is mutable because the snapshot belongs to the caller's
  // workspace: studies that perturb the graph (SetEnabled for outage /
  // failure / disjoint-path routing) operate on their own copy, never
  // on model state, and the next build resets every edge anyway.
  Snapshot& BuildSnapshot(double time_sec, SnapshotWorkspace* workspace) const;

  // Convenience wrapper: builds with a throwaway workspace.
  Snapshot BuildSnapshot(double time_sec) const;

  const Scenario& scenario() const { return scenario_; }
  const NetworkOptions& options() const { return options_; }
  const std::vector<data::City>& cities() const { return cities_; }
  // Index into cities() of the first city named `name`; throws
  // std::invalid_argument when no city has that name.
  int CityIndex(const std::string& name) const;
  const orbit::Constellation& constellation() const { return constellation_; }
  const std::vector<geo::GeodeticCoord>& relays() const { return relays_; }

  // Geodetic position of a ground node in a snapshot (cities, relays, or
  // aircraft; satellites are rejected).
  geo::GeodeticCoord GroundNodeCoord(const Snapshot& snapshot,
                                     graph::NodeId node) const;

 private:
  void Initialise();

  Scenario scenario_;
  NetworkOptions options_;
  std::vector<data::City> cities_;
  orbit::Constellation constellation_;
  std::vector<orbit::IslEdge> isl_pairs_;
  std::vector<geo::GeodeticCoord> relays_;
  std::optional<air::AirTrafficModel> air_;
  // Cached ECEF for static ground nodes.
  std::vector<geo::Vec3> city_ecef_;
  std::vector<geo::Vec3> relay_ecef_;
};

}  // namespace leosim::core
