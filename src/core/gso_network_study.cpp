#include "core/gso_network_study.hpp"

#include <limits>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One mode's impact from its routes without and with the exclusion.
GsoModeImpact CompareRoutes(const SlotRoutes& without, const SlotRoutes& with) {
  GsoModeImpact impact;
  impact.pairs = static_cast<int>(without.rtt.size());
  double rtt_without_sum = 0.0;
  double rtt_with_sum = 0.0;
  int both = 0;
  for (size_t i = 0; i < without.rtt.size(); ++i) {
    const bool reached_without = without.rtt[i] != kInf;
    const bool reached_with = with.rtt[i] != kInf;
    if (reached_without) {
      ++impact.reachable_without_exclusion;
    }
    if (reached_with) {
      ++impact.reachable_with_exclusion;
    }
    if (reached_without && reached_with) {
      rtt_without_sum += without.rtt[i];
      rtt_with_sum += with.rtt[i];
      ++both;
    }
  }
  if (both > 0) {
    impact.mean_rtt_without_ms = rtt_without_sum / both;
    impact.mean_rtt_with_ms = rtt_with_sum / both;
  }
  return impact;
}

}  // namespace

std::vector<CityPair> CrossHemispherePairs(const std::vector<data::City>& cities,
                                           const std::vector<CityPair>& pairs) {
  std::vector<CityPair> crossing;
  for (const CityPair& pair : pairs) {
    const double lat_a = cities[static_cast<size_t>(pair.a)].latitude_deg;
    const double lat_b = cities[static_cast<size_t>(pair.b)].latitude_deg;
    if (lat_a * lat_b < 0.0) {
      crossing.push_back(pair);
    }
  }
  return crossing;
}

GsoNetworkResult RunGsoNetworkStudy(const Scenario& scenario,
                                    const std::vector<data::City>& cities,
                                    const std::vector<CityPair>& pairs,
                                    const NetworkOptions& base_options) {
  const obs::Span span("study.gso_network");
  // One hybrid snapshot per exclusion setting, routed as built and with
  // its ISLs masked (the bent-pipe view, as in the latency study): a
  // bent-pipe model differs from its hybrid twin only in the mode, so
  // masking gives its answers bit for bit (CanDeriveBentPipeByMasking).
  // One workspace: the plain snapshot is routed before the excluded one
  // is built over it.
  NetworkOptions plain = base_options;
  plain.mode = ConnectivityMode::kHybrid;
  plain.apply_gso_exclusion = false;
  NetworkOptions excluded = plain;
  excluded.apply_gso_exclusion = true;
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  SweepWorkspace ws;
  SlotRoutes hybrid[2];
  SlotRoutes bent_pipe[2];
  const NetworkOptions* variants[2] = {&plain, &excluded};
  for (size_t v = 0; v < 2; ++v) {
    const NetworkModel model(scenario, *variants[v], cities);
    RouteSlotPairsHybridAndBentPipe(model.BuildSnapshot(0.0, &ws.snapshot),
                                    pairs, groups, &ws, &hybrid[v], &bent_pipe[v]);
  }
  GsoNetworkResult result;
  result.bent_pipe = CompareRoutes(bent_pipe[0], bent_pipe[1]);
  result.hybrid = CompareRoutes(hybrid[0], hybrid[1]);
  // Each mode routed every pair twice, without and with the exclusion.
  uint64_t routed = 0;
  for (const GsoModeImpact& impact : {result.bent_pipe, result.hybrid}) {
    routed += static_cast<uint64_t>(impact.reachable_without_exclusion +
                                    impact.reachable_with_exclusion);
  }
  CountStudyPairs(routed, 4 * pairs.size() - routed);
  return result;
}

}  // namespace leosim::core
