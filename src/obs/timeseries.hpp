// Per-snapshot timeseries for the study drivers, exported as sorted,
// schema-versioned JSON ("leosim.timeseries/1").
//
// Run-level aggregates (the metrics registry) cannot show a regression
// that reshapes a curve without moving its totals — the paper's headline
// results are temporal, so the studies record one sample per snapshot
// per instrumented key: (t, key, value). `t` is the sample's x
// coordinate — usually the snapshot time in seconds, but any monotone
// study axis works (the outage study records against margin_db).
//
// Cost model: with recording off (the default) Record() is one relaxed
// atomic load and a branch. When enabled, a sample lands in the calling
// thread's buffer (one uncontended mutex, amortised no allocation), so
// parallel study workers record without contending. Buffers are
// registered globally and survive thread join; they are bounded
// (kMaxTimeseriesSamplesPerThread), with overflow counted rather than
// grown.
//
// Export merges every thread's buffer and sorts samples by
// (key, t, value), so identical runs produce byte-identical JSON no
// matter how work was scheduled across threads (regression-tested in
// tests/obs_test.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace leosim::obs {

inline constexpr std::size_t kMaxTimeseriesSamplesPerThread = std::size_t{1}
                                                              << 20;

// Process-wide recorder the studies feed. Mirrors the trace layer: one
// global instance, per-thread buffers merged on export.
class TimeseriesRecorder {
 public:
  TimeseriesRecorder() = default;
  TimeseriesRecorder(const TimeseriesRecorder&) = delete;
  TimeseriesRecorder& operator=(const TimeseriesRecorder&) = delete;

  static TimeseriesRecorder& Global();

  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Records one sample; no-op (one relaxed load) when disabled. `key`
  // identifies the series; samples recorded under the same key from any
  // thread merge into one sorted series on export.
  void Record(double t, std::string_view key, double value) {
    if (!Enabled()) {
      return;
    }
    RecordAlways(t, key, value);
  }

  // Records one whole series in a single serial walk over the slots:
  // values[i] is the sample at times[i]. NaN values mean "no sample this
  // slot" and are skipped (the studies use that for e.g. a percentile
  // over zero reachable pairs). The convenience over per-slot Record()
  // calls is structural: a parallel study collects into a slot-indexed
  // array and emits it here after the sweep, so what lands in the
  // recorder never depends on worker scheduling.
  void RecordSeries(std::string_view key, const std::vector<double>& times,
                    const std::vector<double>& values);

  // JSON object {"schema": "leosim.timeseries/1", "dropped_samples": N,
  // "series": {"key": [[t, value], ...], ...}} with keys sorted and each
  // series sorted by (t, value) — deterministic for deterministic inputs.
  std::string ToJson() const;

  // Discards all recorded samples (buffers stay registered).
  void Reset();

  // Samples dropped to the per-thread buffer cap since the last reset.
  uint64_t DroppedSamples() const;

 private:
  void RecordAlways(double t, std::string_view key, double value);

  std::atomic<bool> enabled_{false};
};

}  // namespace leosim::obs
