#include "core/gso_network_study.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

GsoModeImpact CompareMode(const Scenario& scenario,
                          const std::vector<data::City>& cities,
                          const std::vector<CityPair>& pairs,
                          NetworkOptions options, const GsoNetworkOptions& gso,
                          StudySummary* summary) {
  options.apply_gso_exclusion = false;
  const NetworkModel plain(scenario, options, cities);
  options.apply_gso_exclusion = true;
  options.gso_separation_deg = gso.separation_deg;
  const NetworkModel excluded(scenario, options, cities);

  // One workspace: the plain snapshot is routed before the excluded one
  // is built over it.
  SweepWorkspace ws;
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  SlotRoutes without;
  SlotRoutes with;
  RouteSlotPairs(plain.BuildSnapshot(gso.time_sec, &ws.snapshot), pairs, groups,
                 /*want_paths=*/false, &ws, &without);
  RouteSlotPairs(excluded.BuildSnapshot(gso.time_sec, &ws.snapshot), pairs,
                 groups, /*want_paths=*/false, &ws, &with);
  summary->snapshots_built += 2;

  GsoModeImpact impact;
  impact.pairs = static_cast<int>(pairs.size());
  double rtt_without_sum = 0.0;
  double rtt_with_sum = 0.0;
  int both = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const bool reached_without = without.rtt[i] != kInf;
    const bool reached_with = with.rtt[i] != kInf;
    if (reached_without) {
      ++impact.reachable_without_exclusion;
      ++summary->pairs_routed;
    } else {
      ++summary->pairs_unreachable;
    }
    if (reached_with) {
      ++impact.reachable_with_exclusion;
      ++summary->pairs_routed;
    } else {
      ++summary->pairs_unreachable;
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

void GsoNetworkOptions::Validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("gso network options: ") + what);
    }
  };
  // Written so that NaN fails every check.
  require(separation_deg >= 0.0 && separation_deg <= 180.0,
          "separation_deg must be in [0, 180]");
  require(std::isfinite(time_sec), "time_sec must be finite");
}

GsoNetworkResult RunGsoNetworkStudy(const Scenario& scenario,
                                    const std::vector<data::City>& cities,
                                    const std::vector<CityPair>& pairs,
                                    const NetworkOptions& base_options,
                                    const GsoNetworkOptions& gso) {
  gso.Validate();
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "gso_network";
  GsoNetworkResult result;
  NetworkOptions bp = base_options;
  bp.mode = ConnectivityMode::kBentPipe;
  result.bent_pipe = CompareMode(scenario, cities, pairs, bp, gso, &summary);
  NetworkOptions hybrid = base_options;
  hybrid.mode = ConnectivityMode::kHybrid;
  result.hybrid = CompareMode(scenario, cities, pairs, hybrid, gso, &summary);
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

}  // namespace leosim::core
