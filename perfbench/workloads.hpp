// The benchmark's three workloads. Each one drives a study's public entry
// point on inputs generated from the seed, checks what it returned, and
// can replay the same slots through the public functions of each layer
// under spans (see spans.hpp) for the per-layer numbers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace leobench {

struct RunConfig {
  uint64_t seed{1};
  int threads{1};
  bool tiny{false};     // self-test scale: seconds of work instead of minutes
  std::string corrupt;  // "", "rtt", "gbps" or "netevents" (self-test only)
  std::string out_dir;  // scratch directory for files the workload writes
};

// Pass/fail tallies behind failed_frac. Only the first few failures are
// kept verbatim.
struct Checks {
  uint64_t attempted{0};
  uint64_t failed{0};
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) {
        failures.push_back(what);
      }
    }
  }

  void Merge(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& what : other.failures) {
      if (failures.size() < 8) {
        failures.push_back(what);
      }
    }
  }
};

// Exact per-layer counts filled by a replay, keyed by metric name.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates cities and pairs from the seed and constructs the
  // NetworkModels. With a recorder, each setup layer is also timed on
  // its own under a span.
  virtual void Setup(SpanRecorder* spans) = 0;

  // One call of the study's public entry point: the timed operation.
  virtual void RunStudy() = 0;

  // Checks the latest call's outputs (outside the timed region). Every
  // call after the first must reproduce the first one exactly.
  virtual void Check(Checks* checks) = 0;

  // Replays the latest call's slots through each layer's public functions
  // under spans, on config.threads workers that claim slots in order as
  // the study's sweep does. The replay must do exactly the study's graph
  // searches and snapshot builds; `fidelity` records whether its results
  // also match the study's.
  virtual void Replay(SpanRecorder* spans, Counts* counts, Checks* fidelity) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config);

}  // namespace leobench
