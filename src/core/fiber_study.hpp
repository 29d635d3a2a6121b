// Fiber augmentation of metro ground-satellite capacity (paper §8,
// Fig. 11): nearby smaller cities lend the metro their satellite
// visibility over terrestrial fiber ("distributed GTs").
#pragma once

#include <string>
#include <vector>

#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "ground/fiber.hpp"

namespace leosim::core {

struct FiberMemberStats {
  std::string city;
  double mean_visible_sats{0.0};
  double fiber_latency_ms{0.0};  // metro <-> member one-way
};

struct FiberStudyResult {
  FiberMemberStats metro;
  std::vector<FiberMemberStats> members;
  // Mean over snapshots of the number of DISTINCT satellites visible from
  // the metro alone vs from the whole group.
  double metro_mean_distinct_sats{0.0};
  double group_mean_distinct_sats{0.0};
  // Uplink capacity proxy: distinct visible satellites x per-link rate.
  double metro_capacity_gbps{0.0};
  double group_capacity_gbps{0.0};
  double capacity_gain{0.0};  // group / metro
  // Mean total GT-satellite links across the group (each city contributes
  // its own links; spatial spectrum reuse) vs the metro's links alone —
  // the upper-bound capacity view of "distributed GTs".
  double metro_mean_links{0.0};
  double group_mean_links{0.0};
  double link_gain{0.0};  // group / metro
};

// Compares ground::BuildFiberGroup's group (Paris and five nearby cities)
// with the metro alone at each time of `schedule`. Throws
// std::invalid_argument for a bad schedule (SnapshotSchedule::Validate).
FiberStudyResult RunFiberStudy(const Scenario& scenario,
                               const std::vector<data::City>& cities,
                               const SnapshotSchedule& schedule);

}  // namespace leosim::core
