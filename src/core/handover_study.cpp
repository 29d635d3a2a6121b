#include "core/handover_study.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/net_trace.hpp"
#include "geo/geodesic.hpp"
#include "link/visibility.hpp"
#include "obs/trace.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {

namespace {

// The observation window ext_handover tabulates: 2 h, sampled every 10 s.
constexpr double kDurationSec = 7200.0;
constexpr double kStepSec = 10.0;

}  // namespace

HandoverStats RunHandoverStudy(const Scenario& scenario,
                               const geo::GeodeticCoord& terminal) {
  const obs::Span span("study.handover");
  if (!(terminal.latitude_deg >= -90.0 && terminal.latitude_deg <= 90.0 &&
        std::isfinite(terminal.longitude_deg) &&
        std::isfinite(terminal.altitude_km))) {
    throw std::invalid_argument(
        "handover study: the terminal needs a latitude in [-90, 90] and a "
        "finite longitude and altitude");
  }
  const orbit::Constellation constellation =
      orbit::Constellation::WalkerDelta(scenario.shell);
  const geo::Vec3 gt = geo::GeodeticToEcef(terminal);
  const double coverage = geo::CoverageRadiusKm(scenario.shell.altitude_km,
                                                scenario.radio.min_elevation_deg);

  // Track per-satellite visibility intervals over the sampled window.
  std::map<int, double> pass_start;  // satellite -> time it rose
  std::vector<double> completed_durations;
  int visible_sum = 0;
  int samples = 0;
  int outage_samples = 0;
  int endings = 0;

  // This study samples visibility directly (no snapshots), so any trace
  // it leaves is event-only: handover events per slot, no netstate
  // keyframes, on the sampling loop's timeline.
  std::vector<double> times;
  for (double t = 0.0; t <= kDurationSec; t += kStepSec) {
    times.push_back(t);
  }
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  if (net_trace.Enabled()) {
    net_trace.SetTimeline(times);
  }

  std::vector<int> previous;
  std::vector<geo::Vec3> sats;
  link::SatelliteIndex index;
  std::vector<int> visible;
  std::vector<int32_t> gained;
  std::vector<int32_t> lost;
  int slot = 0;
  for (const double t : times) {
    constellation.PositionsEcefInto(t, &sats);
    index.Rebuild(sats, coverage + 100.0);
    index.VisibleInto(gt, scenario.radio.min_elevation_deg, &visible);

    visible_sum += static_cast<int>(visible.size());
    ++samples;
    if (visible.empty()) {
      ++outage_samples;
    }

    gained.clear();
    lost.clear();
    // Risers: in `visible` but not in `previous`.
    for (const int sat : visible) {
      if (!std::binary_search(previous.begin(), previous.end(), sat)) {
        pass_start.emplace(sat, t);
        gained.push_back(sat);
      }
    }
    // Setters: in `previous` but not in `visible`.
    for (const int sat : previous) {
      if (!std::binary_search(visible.begin(), visible.end(), sat)) {
        ++endings;
        lost.push_back(sat);
        const auto it = pass_start.find(sat);
        if (it != pass_start.end()) {
          completed_durations.push_back(t - it->second);
          pass_start.erase(it);
        }
      }
    }
    if (net_trace.Enabled() && (!lost.empty() || !gained.empty())) {
      net_trace.AddHandover(slot, lost, gained);
    }
    previous = visible;
    ++slot;
  }

  HandoverStats stats;
  stats.completed_passes = static_cast<int>(completed_durations.size());
  if (!completed_durations.empty()) {
    double sum = 0.0;
    double max = 0.0;
    double min = std::numeric_limits<double>::infinity();
    for (const double d : completed_durations) {
      sum += d;
      max = std::max(max, d);
      min = std::min(min, d);
    }
    stats.mean_pass_duration_sec = sum / completed_durations.size();
    stats.max_pass_duration_sec = max;
    stats.min_pass_duration_sec = min;
  }
  stats.mean_visible_sats = static_cast<double>(visible_sum) / samples;
  stats.pass_endings_per_hour = endings / (kDurationSec / 3600.0);
  stats.outage_fraction = static_cast<double>(outage_samples) / samples;
  return stats;
}

}  // namespace leosim::core
