#include "core/multishell_study.hpp"

#include <limits>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

MultishellResult RunMultishellStudy(const Scenario& scenario,
                                    const orbit::OrbitalShell& second_shell,
                                    std::vector<data::City> cities,
                                    const std::string& city_a,
                                    const std::string& city_b,
                                    const SnapshotSchedule& schedule) {
  const obs::Span span("study.multishell");
  NetworkOptions options;
  options.mode = ConnectivityMode::kIslOnly;  // city GTs + ISLs

  const NetworkModel single(scenario, options, cities);
  const NetworkModel dual(scenario, options, cities, {second_shell});

  const std::vector<CityPair> pair = {
      {single.CityIndex(city_a), single.CityIndex(city_b)}};
  const std::vector<SourceGroup> groups = GroupPairsBySource(pair);

  MultishellResult result;
  result.times_sec = schedule.Times();
  const size_t slots = result.times_sec.size();
  result.single_shell_rtt_ms.assign(slots, kInf);
  result.dual_shell_rtt_ms.assign(slots, kInf);
  // One item per slot builds and routes both models in turn; the
  // comparison below runs serially over the slot-indexed arrays.
  const TemporalSweep sweep(result.times_sec);
  sweep.Run("multishell", [&](const SweepItem& item, SweepWorkspace& ws) {
    const size_t slot = static_cast<size_t>(item.slot);
    // kIslOnly has no relays or aircraft: the router's contraction keeps
    // every node.
    SlotRoutes routes;
    RouteSlotPairs(single.BuildSnapshot(item.time_sec, &ws.snapshot), pair,
                   groups, /*want_paths=*/false, &ws, &routes);
    result.single_shell_rtt_ms[slot] = routes.rtt[0];
    RouteSlotPairs(dual.BuildSnapshot(item.time_sec, &ws.snapshot), pair,
                   groups, /*want_paths=*/false, &ws, &routes);
    result.dual_shell_rtt_ms[slot] = routes.rtt[0];
  });

  double improvement_sum = 0.0;
  int improvement_count = 0;
  uint64_t routed = 0;
  for (size_t s = 0; s < slots; ++s) {
    const double single_rtt = result.single_shell_rtt_ms[s];
    const double dual_rtt = result.dual_shell_rtt_ms[s];
    routed += (single_rtt != kInf ? 1 : 0) + (dual_rtt != kInf ? 1 : 0);
    if (dual_rtt < single_rtt - 1e-9) {
      ++result.improved_snapshots;
    }
    if (single_rtt != kInf && dual_rtt != kInf) {
      improvement_sum += single_rtt - dual_rtt;
      ++improvement_count;
    }
  }
  if (improvement_count > 0) {
    result.mean_improvement_ms = improvement_sum / improvement_count;
  }
  CountStudyPairs(routed, 2 * slots - routed);
  return result;
}

}  // namespace leosim::core
