// Weather resilience (paper §6, Figs. 6-8).
//
// For each city pair, the worst atmospheric attenuation across all radio
// links of the shortest path: for BP paths every up/down bounce of the
// zig-zag counts (with signal regeneration at each GT, per the paper's
// model); for ISL paths only the first and last radio hops count.
// Up-links use the Starlink Ku up-link frequency and down-links the
// down-link frequency (§6: 14.25 / 11.7 GHz).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "graph/graph.hpp"

namespace leosim::core {

// Slant-path attenuation (dB) of the radio link between ground node
// `ground` and satellite `sat` of `snap` at `frequency_ghz`, exceeded
// `exceedance_pct` % of the time, for itur::SlantPathConfig's antenna (a
// 0.7 m dish at 50% efficiency, a Starlink user terminal).
double RadioLinkAttenuationDb(const NetworkModel& model,
                              const NetworkModel::Snapshot& snap,
                              graph::NodeId ground, graph::NodeId sat,
                              double frequency_ghz, double exceedance_pct);

// Worst radio-link attenuation (dB) along the node chain `path` (src ...
// dst) in `snap`, at the given exceedance probability. Returns 0 for a
// path with no radio links.
double WorstLinkAttenuationDb(const NetworkModel& model,
                              const NetworkModel::Snapshot& snap,
                              std::span<const graph::NodeId> path,
                              double exceedance_pct);

struct AttenuationDistributions {
  std::vector<double> bp_db;   // per reachable pair
  std::vector<double> isl_db;  // per reachable pair
  int bp_unreachable{0};
  int isl_unreachable{0};
};

// Fig. 6: distribution across city pairs of worst-link attenuation for the
// BP network vs the ISL-only network at one snapshot, exceeded
// `exceedance_pct` % of the time (0.5 for the paper's "99.5th
// percentile"). Throws std::invalid_argument for an exceedance outside
// (0, 100).
AttenuationDistributions RunAttenuationStudy(const NetworkModel& bp_model,
                                             const NetworkModel& isl_model,
                                             const std::vector<CityPair>& pairs,
                                             double time_sec,
                                             double exceedance_pct);

// Fig. 8: worst-link attenuation of one pair's paths as a function of the
// exceedance probability (a CCDF in disguise). Throws
// std::invalid_argument for an exceedance outside (0, 100).
struct PathAttenuationCcdf {
  std::vector<double> exceedance_pct;
  std::vector<double> bp_db;
  std::vector<double> isl_db;
  bool bp_reachable{false};
  bool isl_reachable{false};
};

PathAttenuationCcdf TracePairAttenuation(const NetworkModel& bp_model,
                                         const NetworkModel& isl_model,
                                         const std::string& city_a,
                                         const std::string& city_b, double time_sec,
                                         const std::vector<double>& exceedances);

}  // namespace leosim::core
