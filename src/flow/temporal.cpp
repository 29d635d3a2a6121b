#include "flow/temporal.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "flow/maxmin.hpp"

namespace leosim::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeTol = 1e-9;

}  // namespace

TemporalResult SimulateTemporal(const FlowNetwork& net,
                                const std::vector<TemporalFlow>& flows) {
  if (static_cast<int>(flows.size()) != net.NumFlows()) {
    throw std::invalid_argument("one temporal flow per network flow required");
  }
  for (const TemporalFlow& flow : flows) {
    if (!(flow.volume_gbit > 0.0)) {
      throw std::invalid_argument("flow volume must be positive");
    }
  }
  TemporalResult result;
  result.outcomes.assign(flows.size(), {});

  // Arrival order.
  std::vector<int> arrival(flows.size());
  std::iota(arrival.begin(), arrival.end(), 0);
  std::sort(arrival.begin(), arrival.end(), [&](int a, int b) {
    return flows[static_cast<size_t>(a)].start_time_sec <
           flows[static_cast<size_t>(b)].start_time_sec;
  });

  std::vector<double> remaining(flows.size());
  for (size_t f = 0; f < flows.size(); ++f) {
    remaining[f] = flows[f].volume_gbit;
  }

  std::vector<int> active;
  size_t next_arrival = 0;
  double now = flows.empty()
                   ? 0.0
                   : flows[static_cast<size_t>(arrival[0])].start_time_sec;

  while (!active.empty() || next_arrival < arrival.size()) {
    // Admit everything that has arrived by `now`.
    while (next_arrival < arrival.size() &&
           flows[static_cast<size_t>(arrival[next_arrival])].start_time_sec <=
               now + kTimeTol) {
      active.push_back(arrival[next_arrival]);
      ++next_arrival;
    }

    if (active.empty()) {
      // Idle gap: jump to the next arrival.
      now = flows[static_cast<size_t>(arrival[next_arrival])].start_time_sec;
      continue;
    }

    // Max-min allocation over the active flows.
    FlowNetwork active_net;
    for (LinkId l = 0; l < net.NumLinks(); ++l) {
      active_net.AddLink(net.LinkCapacity(l));
    }
    for (const int f : active) {
      active_net.AddFlow(net.FlowLinks(f));
    }
    const Allocation alloc = MaxMinFairAllocate(active_net);

    // Time until the first active flow drains at these rates.
    double dt = kInf;
    for (size_t i = 0; i < active.size(); ++i) {
      const double rate = alloc.flow_rate_gbps[i];
      if (rate > 0.0) {
        dt = std::min(dt, remaining[static_cast<size_t>(active[i])] / rate);
      }
    }
    // Or until the next arrival changes the allocation.
    double next_event = now + dt;
    if (next_arrival < arrival.size()) {
      next_event = std::min(
          next_event,
          flows[static_cast<size_t>(arrival[next_arrival])].start_time_sec);
    }

    if (next_event == kInf) {
      // Every active flow is starved and no arrivals remain.
      result.starved += static_cast<int>(active.size());
      break;
    }

    // Drain volumes over [now, next_event].
    const double elapsed = next_event - now;
    for (size_t i = 0; i < active.size(); ++i) {
      remaining[static_cast<size_t>(active[i])] -=
          alloc.flow_rate_gbps[i] * elapsed;
    }
    now = next_event;

    // Retire completed flows.
    std::vector<int> still_active;
    for (size_t i = 0; i < active.size(); ++i) {
      const int f = active[i];
      const bool starved_forever =
          alloc.flow_rate_gbps[i] <= 0.0 && next_arrival >= arrival.size();
      if (remaining[static_cast<size_t>(f)] <= kTimeTol) {
        result.outcomes[static_cast<size_t>(f)] = {true, now};
        ++result.completed;
        result.makespan_sec = std::max(result.makespan_sec, now);
      } else if (starved_forever) {
        ++result.starved;
      } else {
        still_active.push_back(f);
      }
    }
    active = std::move(still_active);
  }
  return result;
}

}  // namespace leosim::flow
