#include "core/outage_study.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "obs/progress.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void OutageStudyOptions::Validate() const {
  for (const double margin : margins_db) {
    if (!std::isfinite(margin)) {
      throw std::invalid_argument("outage margin must be finite, got " +
                                  std::to_string(margin));
    }
  }
  attenuation.Validate();
}

std::vector<OutageRow> RunOutageStudy(const NetworkModel& model,
                                      const std::vector<CityPair>& pairs,
                                      const OutageStudyOptions& options) {
  options.Validate();
  if (pairs.empty()) {
    throw std::invalid_argument("outage study needs at least one city pair");
  }
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "outage";
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(options.time_sec, &ws.snapshot);
  summary.snapshots_built = 1;
  const link::RadioConfig& radio = model.scenario().radio;

  // Worst-direction attenuation per radio link (up-link frequency is the
  // higher one and rain attenuation grows with frequency, so it wins; we
  // still evaluate both for correctness).
  std::vector<double> link_attenuation(snap.radio_edges.size(), 0.0);
  {
    const obs::Span span("itur.attenuation");
    for (size_t i = 0; i < snap.radio_edges.size(); ++i) {
      const graph::EdgeRecord& rec = snap.graph.Edge(snap.radio_edges[i]);
      const graph::NodeId ground = snap.IsSat(rec.a) ? rec.b : rec.a;
      const graph::NodeId sat = snap.IsSat(rec.a) ? rec.a : rec.b;
      link_attenuation[i] = std::max(
          RadioLinkAttenuationDb(model, snap, ground, sat,
                                 radio.uplink_freq_ghz, options.attenuation),
          RadioLinkAttenuationDb(model, snap, ground, sat,
                                 radio.downlink_freq_ghz, options.attenuation));
    }
  }

  std::vector<OutageRow> rows;
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  SlotRoutes routes;
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  obs::ProgressReporter progress(
      "outage", static_cast<uint64_t>(options.margins_db.size()));
  for (const double margin : options.margins_db) {
    // Disable links that would be in outage at this margin.
    int disabled = 0;
    for (size_t i = 0; i < snap.radio_edges.size(); ++i) {
      const bool dead = link_attenuation[i] > margin;
      snap.graph.SetEnabled(snap.radio_edges[i], !dead);
      disabled += dead ? 1 : 0;
    }

    OutageRow row;
    row.margin_db = margin;
    row.links_disabled_fraction =
        snap.radio_edges.empty()
            ? 0.0
            : static_cast<double>(disabled) / snap.radio_edges.size();
    RouteSlotPairs(snap, pairs, groups, /*want_paths=*/false, &ws, &routes);
    int reachable = 0;
    double rtt_sum = 0.0;
    for (const double rtt : routes.rtt) {
      if (rtt != kInf) {
        ++reachable;
        ++summary.pairs_routed;
        rtt_sum += rtt;
      } else {
        ++summary.pairs_unreachable;
      }
    }
    row.reachable_fraction = static_cast<double>(reachable) / pairs.size();
    row.mean_rtt_ms = reachable > 0 ? rtt_sum / reachable : 0.0;
    // The study sweeps margin, not time: samples use margin_db as the x
    // coordinate (see the timeseries header comment).
    recorder.Record(margin, "outage.reachable_fraction", row.reachable_fraction);
    recorder.Record(margin, "outage.links_disabled_fraction",
                    row.links_disabled_fraction);
    recorder.Record(margin, "outage.mean_rtt_ms", row.mean_rtt_ms);
    rows.push_back(row);
    progress.Step();
  }
  // Restore the snapshot for good hygiene (it is ours, but cheap).
  snap.graph.EnableAllEdges();
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return rows;
}

}  // namespace leosim::core
