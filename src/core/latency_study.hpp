// Latency and its temporal variability (paper §4, Figs. 2-3).
//
// Simulates a day at fixed snapshots; at each snapshot finds the shortest
// path for every city pair under BP-only and hybrid connectivity, and
// reports per-pair minimum RTT and RTT range (max - min) distributions.
#pragma once

#include <string>
#include <vector>

#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"

namespace leosim::core {

struct SnapshotSchedule {
  double duration_sec{86400.0};
  double step_sec{900.0};  // paper: 15-minute snapshots

  // Throws std::invalid_argument unless duration_sec is finite and
  // step_sec is finite, > 0 and advances t at duration_sec.
  void Validate() const;
  // Slot times 0, step, 2 step, ... below duration_sec; calls Validate.
  std::vector<double> Times() const;
};

struct PairRttSeries {
  CityPair pair;
  std::vector<double> rtt_ms;  // per snapshot; +inf when unreachable

  double MinRtt() const;
  double MaxRtt() const;        // over reachable snapshots
  double Range() const;         // max - min over reachable snapshots
  int UnreachableCount() const;
};

struct LatencyStudyResult {
  std::vector<double> snapshot_times;
  std::vector<PairRttSeries> bp;
  std::vector<PairRttSeries> hybrid;

  // Distributions across pairs (pairs that were ever reachable).
  std::vector<double> MinRtts(const std::vector<PairRttSeries>& series) const;
  std::vector<double> Ranges(const std::vector<PairRttSeries>& series) const;
};

// Runs the study. Each slot is built once from `hybrid_model` and routed
// twice, the second time with its ISLs masked off, so `bp_model` must
// differ from it only in mode: throws std::invalid_argument naming the
// difference otherwise (CanDeriveBentPipeByMasking). `pairs` indexes
// into the models' shared city list.
LatencyStudyResult RunLatencyStudy(const NetworkModel& bp_model,
                                   const NetworkModel& hybrid_model,
                                   const std::vector<CityPair>& pairs,
                                   const SnapshotSchedule& schedule);

// Path-churn trace for one pair (Fig. 3): per snapshot, the BP path's RTT
// and hop composition, including how far north the path detours.
struct PathObservation {
  double time_sec{0.0};
  double rtt_ms{0.0};
  bool reachable{false};
  int satellite_hops{0};
  int aircraft_hops{0};
  int relay_hops{0};
  int city_hops{0};  // intermediate cities acting as transit
  double max_node_latitude_deg{-90.0};
  double min_node_latitude_deg{90.0};
};

std::vector<PathObservation> TracePairPath(const NetworkModel& model,
                                           const std::string& city_a,
                                           const std::string& city_b,
                                           const SnapshotSchedule& schedule);

}  // namespace leosim::core
