#include "core/attenuation_study.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "geo/geodesic.hpp"
#include "itur/slant_path.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds `model`'s snapshot at `time_sec` into ws and routes every pair
// of `pairs` on it into `routes`, with full-graph node chains. The
// snapshot is valid until the next build with `ws`.
const NetworkModel::Snapshot& RouteChains(const NetworkModel& model,
                                          const std::vector<CityPair>& pairs,
                                          double time_sec, SweepWorkspace* ws,
                                          SlotRoutes* routes) {
  const NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, &ws->snapshot);
  RouteSlotPairs(snap, pairs, GroupPairsBySource(pairs), /*want_paths=*/true, ws,
                 routes);
  return snap;
}

// The ITU-R model clamps an exceedance outside (0, 100) silently, and a
// NaN reaches it as a NaN attenuation.
void CheckExceedance(double exceedance_pct) {
  if (!(exceedance_pct > 0.0 && exceedance_pct < 100.0)) {
    throw std::invalid_argument("attenuation: exceedance_pct must be in (0, 100), got " +
                                std::to_string(exceedance_pct));
  }
}

}  // namespace

double RadioLinkAttenuationDb(const NetworkModel& model,
                              const NetworkModel::Snapshot& snap,
                              graph::NodeId ground, graph::NodeId sat,
                              double frequency_ghz, double exceedance_pct) {
  const double elevation = geo::ElevationAngleDeg(
      snap.node_ecef[static_cast<size_t>(ground)],
      snap.node_ecef[static_cast<size_t>(sat)]);
  itur::SlantPathConfig config;
  config.frequency_ghz = frequency_ghz;
  return itur::SlantPathAttenuationDb(model.GroundNodeCoord(snap, ground),
                                      elevation, config, exceedance_pct);
}

double WorstLinkAttenuationDb(const NetworkModel& model,
                              const NetworkModel::Snapshot& snap,
                              std::span<const graph::NodeId> path,
                              double exceedance_pct) {
  const link::RadioConfig& radio = model.scenario().radio;
  double worst = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const graph::NodeId u = path[i];
    const graph::NodeId v = path[i + 1];
    const bool up = !snap.IsSat(u) && snap.IsSat(v);
    const bool down = snap.IsSat(u) && !snap.IsSat(v);
    if (!up && !down) {
      continue;  // laser ISL: weather-immune
    }
    worst = std::max(
        worst, RadioLinkAttenuationDb(
                   model, snap, up ? u : v, up ? v : u,
                   up ? radio.uplink_freq_ghz : radio.downlink_freq_ghz,
                   exceedance_pct));
  }
  return worst;
}

AttenuationDistributions RunAttenuationStudy(const NetworkModel& bp_model,
                                             const NetworkModel& isl_model,
                                             const std::vector<CityPair>& pairs,
                                             double time_sec,
                                             double exceedance_pct) {
  const obs::Span span("study.attenuation");
  CheckExceedance(exceedance_pct);
  AttenuationDistributions result;
  // One mode at a time on one workspace: route every pair, then score
  // each reachable pair's chain in pair order.
  SweepWorkspace ws;
  SlotRoutes routes;
  const auto score_mode = [&](const NetworkModel& model, std::vector<double>* db,
                              int* unreachable) {
    const NetworkModel::Snapshot& snap =
        RouteChains(model, pairs, time_sec, &ws, &routes);
    const obs::Span span("itur.attenuation");
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (routes.rtt[i] == kInf) {
        ++*unreachable;
      } else {
        db->push_back(
            WorstLinkAttenuationDb(model, snap, routes.PathNodes(i), exceedance_pct));
      }
    }
  };
  score_mode(bp_model, &result.bp_db, &result.bp_unreachable);
  score_mode(isl_model, &result.isl_db, &result.isl_unreachable);

  CountStudyPairs(result.bp_db.size() + result.isl_db.size(),
                  static_cast<uint64_t>(result.bp_unreachable) +
                      static_cast<uint64_t>(result.isl_unreachable));
  return result;
}

PathAttenuationCcdf TracePairAttenuation(const NetworkModel& bp_model,
                                         const NetworkModel& isl_model,
                                         const std::string& city_a,
                                         const std::string& city_b, double time_sec,
                                         const std::vector<double>& exceedances) {
  const obs::Span span("study.attenuation_trace");
  for (const double p : exceedances) {
    CheckExceedance(p);
  }
  const std::vector<CityPair> bp_pair = {
      {bp_model.CityIndex(city_a), bp_model.CityIndex(city_b)}};
  const std::vector<CityPair> isl_pair = {
      {isl_model.CityIndex(city_a), isl_model.CityIndex(city_b)}};
  PathAttenuationCcdf out;
  out.exceedance_pct = exceedances;
  SweepWorkspace ws;
  SlotRoutes routes;
  // Routes the pair on `model`'s snapshot and fills `db` with its chain's
  // worst link at every exceedance (0 when unreachable).
  const auto trace_mode = [&](const NetworkModel& model,
                              const std::vector<CityPair>& pair,
                              std::vector<double>* db) {
    const NetworkModel::Snapshot& snap =
        RouteChains(model, pair, time_sec, &ws, &routes);
    const bool reachable = routes.rtt[0] != kInf;
    const obs::Span span("itur.attenuation");
    for (const double p : exceedances) {
      db->push_back(
          reachable ? WorstLinkAttenuationDb(model, snap, routes.PathNodes(0), p) : 0.0);
    }
    return reachable;
  };
  out.bp_reachable = trace_mode(bp_model, bp_pair, &out.bp_db);
  out.isl_reachable = trace_mode(isl_model, isl_pair, &out.isl_db);
  return out;
}

}  // namespace leosim::core
