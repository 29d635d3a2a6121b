// Progress heartbeats for long study runs: completed-step counts with
// rate and ETA, emitted as "[progress] ..." lines at a configurable
// interval.
//
// Off by default. The interval (heartbeat period in seconds) is set with
// SetProgressInterval (the --progress[=SEC] flag of every binary,
// core::ObsFlags). Lines go to the progress sink (default: stderr),
// which SetProgressSink swaps, one line at a time under the sink mutex.
//
// Cost model: Step() on a disabled reporter is one relaxed fetch_add.
// Enabled, it adds a steady-clock read and a relaxed deadline check;
// only the thread that wins the deadline CAS formats and emits, so
// ParallelFor workers can all call Step() without serialising on the
// sink (the counter is shared; emission is claimed by compare-exchange,
// not by a lock).
//
// Usage:
//   obs::ProgressReporter progress("latency", num_snapshots);
//   for each snapshot: ... progress.Step();
//   // destructor emits a final progress.done line when enabled
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace leosim::obs {

inline constexpr double kDefaultProgressIntervalSec = 2.0;

// True when the heartbeat period is > 0 (progress reporting is on).
bool ProgressEnabled();
// Sets the interval; pass <= 0 to switch progress off.
void SetProgressInterval(double seconds);

// Replaces the line sink (default: one fwrite to stderr per line). The
// sink is called with a whole line, newline included, under the sink
// mutex — from any thread, but never concurrently. Passing nullptr
// restores the default sink.
using ProgressSink = std::function<void(std::string_view)>;
void SetProgressSink(ProgressSink sink);

// Tracks completed steps of one run phase. Enablement is latched at
// construction, so a reporter is either fully on or costs one relaxed
// add per Step for its whole lifetime.
class ProgressReporter {
 public:
  // `label` names the phase in the emitted lines (e.g. the study name);
  // `total_steps` sizes the ETA (0 = unknown: rate only, no ETA).
  ProgressReporter(std::string_view label, uint64_t total_steps);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  void Step(uint64_t n = 1);
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  void Emit(uint64_t done, bool final_line) const;

  std::string label_;
  uint64_t total_;
  bool enabled_;
  int64_t interval_ns_{0};
  int64_t start_ns_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<int64_t> next_emit_ns_{0};
};

}  // namespace leosim::obs
