// Temporal routed-flow simulation — the full semantics of floodns
// ("temporal routed flow simulation", Kassing 2020), of which
// MaxMinFairAllocate is the per-instant kernel.
//
// Flows arrive over time carrying a finite volume over a fixed path. At
// every event (a flow arriving or completing) the max-min fair allocation
// over the currently-active flows is recomputed; volumes drain at the
// allocated rates between events. The output is each flow's completion
// time — enabling flow-completion-time comparisons between BP and hybrid
// connectivity that a single static allocation cannot express.
#pragma once

#include <vector>

#include "flow/flow_network.hpp"

namespace leosim::flow {

struct TemporalFlow {
  double start_time_sec{0.0};
  double volume_gbit{1.0};
};

struct FlowOutcome {
  bool completed{false};
  double completion_time_sec{0.0};  // valid when completed
  double DurationSec(const TemporalFlow& flow) const {
    return completion_time_sec - flow.start_time_sec;
  }
};

struct TemporalResult {
  std::vector<FlowOutcome> outcomes;  // indexed like the input flows
  int completed{0};
  int starved{0};        // rate stayed 0 forever (empty path / dead link)
  double makespan_sec{0.0};  // last completion time
};

// Runs net's flows to completion, flow f arriving at flows[f].start_time_sec
// with flows[f].volume_gbit; a flow whose rate stays zero is reported as
// starved, not simulated forever. Throws std::invalid_argument unless
// there is one TemporalFlow per network flow and every volume is positive.
TemporalResult SimulateTemporal(const FlowNetwork& net,
                                const std::vector<TemporalFlow>& flows);

}  // namespace leosim::flow
