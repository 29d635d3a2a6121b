#include "core/failure_study.hpp"

#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/report.hpp"
#include "core/slot_router.hpp"
#include "core/temporal_sweep.hpp"
#include "data/rng.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<FailureRow> RunFailureStudy(const NetworkModel& model,
                                        const std::vector<CityPair>& pairs) {
  const obs::Span span("study.failure");
  if (pairs.empty()) {
    throw std::invalid_argument("failure study needs at least one city pair");
  }
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(0.0, &ws.snapshot);
  data::SplitMix64 rng(kFailureSeed);
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  SlotRoutes routes;

  std::vector<FailureRow> rows;
  uint64_t routed = 0;
  uint64_t unreachable = 0;
  for (const double fraction : kFailureFractions) {
    const int failures =
        static_cast<int>(fraction * static_cast<double>(snap.num_sats));
    double reachable_sum = 0.0;
    double rtt_sum = 0.0;
    int rtt_count = 0;
    const int trials = failures == 0 ? 1 : kFailureTrials;
    for (int trial = 0; trial < trials; ++trial) {
      // Kill a random satellite subset: disable all their incident edges.
      std::vector<int> order(static_cast<size_t>(snap.num_sats));
      std::iota(order.begin(), order.end(), 0);
      for (int i = 0; i < failures; ++i) {
        std::swap(order[static_cast<size_t>(i)],
                  order[static_cast<size_t>(i + rng.NextInt(snap.num_sats - i))]);
      }
      std::vector<graph::EdgeId> disabled;
      for (int i = 0; i < failures; ++i) {
        for (const graph::HalfEdge& half :
             snap.graph.Neighbours(snap.SatNode(order[static_cast<size_t>(i)]))) {
          if (snap.graph.IsEnabled(half.edge)) {
            snap.graph.SetEnabled(half.edge, false);
            disabled.push_back(half.edge);
          }
        }
      }

      RouteSlotPairs(snap, pairs, groups, /*want_paths=*/false, &ws, &routes);
      int reachable = 0;
      for (const double rtt : routes.rtt) {
        if (rtt != kInf) {
          ++reachable;
          rtt_sum += rtt;
          ++rtt_count;
        }
      }
      routed += static_cast<uint64_t>(reachable);
      unreachable += pairs.size() - static_cast<uint64_t>(reachable);
      reachable_sum += static_cast<double>(reachable) / pairs.size();

      for (const graph::EdgeId e : disabled) {
        snap.graph.SetEnabled(e, true);
      }
    }
    FailureRow row;
    row.failure_fraction = fraction;
    row.reachable_fraction = reachable_sum / trials;
    row.mean_rtt_ms = rtt_count > 0 ? rtt_sum / rtt_count : 0.0;
    rows.push_back(row);
  }
  CountStudyPairs(routed, unreachable);
  return rows;
}

}  // namespace leosim::core
