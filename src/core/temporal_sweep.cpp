#include "core/temporal_sweep.hpp"

#include <string>

#include "core/parallel.hpp"
#include "obs/progress.hpp"

namespace leosim::core {

void TemporalSweep::Run(
    const std::string& progress_label,
    const std::function<void(const SweepItem&, SweepWorkspace&)>& body) const {
  const int items = static_cast<int>(times_.size());
  if (items <= 0) {
    return;
  }
  // Workspaces are indexed by dense worker id; the worker count never
  // exceeds the item count, so sizing by items is always sufficient
  // (and cheap: a default-constructed workspace is a handful of empty
  // vectors until its first build).
  std::vector<SweepWorkspace> workspaces(static_cast<size_t>(items));
  obs::ProgressReporter progress(progress_label,
                                 static_cast<uint64_t>(items));
  ParallelForWorkers(items, [&](int worker, int slot) {
    body({slot, times_[static_cast<size_t>(slot)]},
         workspaces[static_cast<size_t>(worker)]);
    progress.Step();
  });
}

std::vector<SourceGroup> GroupPairsBySource(const std::vector<CityPair>& pairs) {
  std::vector<SourceGroup> groups;
  // City count is a few hundred; a flat index avoids hashing and keeps
  // first-appearance order.
  std::vector<int> group_of;
  for (int i = 0; i < static_cast<int>(pairs.size()); ++i) {
    const int src = pairs[static_cast<size_t>(i)].a;
    if (src >= static_cast<int>(group_of.size())) {
      group_of.resize(static_cast<size_t>(src) + 1, -1);
    }
    int& slot = group_of[static_cast<size_t>(src)];
    if (slot < 0) {
      slot = static_cast<int>(groups.size());
      groups.push_back({src, {}});
    }
    groups[static_cast<size_t>(slot)].pair_indices.push_back(i);
  }
  return groups;
}

bool CanDeriveBentPipeByMasking(const NetworkModel& bp_model,
                                const NetworkModel& hybrid_model,
                                std::string* mismatch) {
  NetworkOptions bp_as_hybrid = bp_model.options();
  bp_as_hybrid.mode = ConnectivityMode::kHybrid;
  const Scenario& sa = bp_model.scenario();
  const Scenario& sb = hybrid_model.scenario();
  // Everything apart from the mode must match: each of these feeds node
  // layout, radio-edge construction, or edge weights. The ISL config
  // does not, since the bent-pipe graph has no ISLs.
  const char* what = nullptr;
  if (bp_model.options().mode != ConnectivityMode::kBentPipe ||
      hybrid_model.options().mode != ConnectivityMode::kHybrid) {
    what = "modes are not (bent-pipe, hybrid)";
  } else if (bp_as_hybrid != hybrid_model.options()) {
    what = "network options other than the mode differ";
  } else if (sa.name != sb.name || sa.radio != sb.radio) {
    what = "scenarios differ";
  } else if (bp_model.constellation().shells() != hybrid_model.constellation().shells()) {
    what = "constellation shells differ";
  } else if (bp_model.cities() != hybrid_model.cities()) {
    what = "city lists differ";
  }
  if (what != nullptr && mismatch != nullptr) {
    *mismatch = what;
  }
  return what == nullptr;
}

}  // namespace leosim::core
