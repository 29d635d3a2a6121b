#include "core/fiber_study.hpp"

#include <set>

#include "geo/geodesic.hpp"
#include "link/visibility.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

FiberStudyResult RunFiberStudy(const Scenario& scenario,
                               const std::vector<data::City>& cities,
                               const SnapshotSchedule& schedule) {
  const obs::Span span("study.fiber");
  const ground::FiberGroup group = ground::BuildFiberGroup(cities);

  orbit::Constellation constellation;
  constellation.AddShell(scenario.shell);
  const double coverage = geo::CoverageRadiusKm(scenario.shell.altitude_km,
                                                scenario.radio.min_elevation_deg);

  // Per-snapshot visibility, metro first then members.
  std::vector<const data::City*> sites{&group.metro};
  for (const data::City& c : group.satellites_cities) {
    sites.push_back(&c);
  }
  std::vector<double> visible_sum(sites.size(), 0.0);
  double metro_distinct_sum = 0.0;
  double group_distinct_sum = 0.0;
  const std::vector<double> times = schedule.Times();
  std::vector<geo::Vec3> sats;
  link::SatelliteIndex index;
  std::vector<int> visible;
  for (const double t : times) {
    constellation.PositionsEcefInto(t, &sats);
    index.Rebuild(sats, coverage + 100.0);
    std::set<int> group_sats;
    for (size_t i = 0; i < sites.size(); ++i) {
      index.VisibleInto(geo::GeodeticToEcef(sites[i]->Coord()),
                        scenario.radio.min_elevation_deg, &visible);
      visible_sum[i] += static_cast<double>(visible.size());
      if (i == 0) {
        metro_distinct_sum += static_cast<double>(visible.size());
      }
      group_sats.insert(visible.begin(), visible.end());
    }
    group_distinct_sum += static_cast<double>(group_sats.size());
  }

  const double n = static_cast<double>(times.size());
  FiberStudyResult result;
  result.metro.city = group.metro.name;
  result.metro.mean_visible_sats = visible_sum[0] / n;
  result.metro.fiber_latency_ms = 0.0;
  for (size_t i = 1; i < sites.size(); ++i) {
    FiberMemberStats stats;
    stats.city = sites[i]->name;
    stats.mean_visible_sats = visible_sum[i] / n;
    stats.fiber_latency_ms = ground::FiberLatencyMs(
        geo::GreatCircleDistanceKm(group.metro.Coord(), sites[i]->Coord()));
    result.members.push_back(stats);
  }
  result.metro_mean_distinct_sats = metro_distinct_sum / n;
  result.group_mean_distinct_sats = group_distinct_sum / n;
  result.metro_capacity_gbps =
      result.metro_mean_distinct_sats * scenario.radio.capacity_gbps;
  result.group_capacity_gbps =
      result.group_mean_distinct_sats * scenario.radio.capacity_gbps;
  result.capacity_gain = result.metro_capacity_gbps > 0.0
                             ? result.group_capacity_gbps / result.metro_capacity_gbps
                             : 0.0;
  result.metro_mean_links = visible_sum[0] / n;
  double total_links = 0.0;
  for (const double v : visible_sum) {
    total_links += v;
  }
  result.group_mean_links = total_links / n;
  result.link_gain = result.metro_mean_links > 0.0
                         ? result.group_mean_links / result.metro_mean_links
                         : 0.0;
  return result;
}

}  // namespace leosim::core
