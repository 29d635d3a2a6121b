// Trace spans for the snapshot pipeline, exported as Chrome trace_event
// JSON (loadable in chrome://tracing and Perfetto).
//
// A Span is an RAII scoped timer. Cost model: when tracing and the
// profiling hook (obs/profile.hpp) are disabled and no histogram is
// attached, constructing a Span is two relaxed atomic loads and two
// branches — no clock read. When armed, the span reads
// the steady clock twice and, on destruction, records a completed
// ("ph":"X") event into the calling thread's buffer (one uncontended
// mutex, no allocation once the buffer has grown) and/or observes the
// duration in microseconds into the attached histogram.
//
// Per-thread buffers are registered globally and kept alive past thread
// exit, so events from joined ParallelFor workers survive until export.
// Buffers are bounded (kMaxTraceEventsPerThread); overflow increments a
// dropped-event count instead of growing without limit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace leosim::obs {

inline constexpr std::size_t kMaxTraceEventsPerThread = std::size_t{1} << 16;

namespace detail {
extern std::atomic<bool> g_trace_enabled;
// Records one completed span on the calling thread's buffer.
void RecordTraceEvent(std::string_view name, int64_t start_ns,
                      int64_t duration_ns);
// Nanoseconds since the process-wide trace epoch (first use).
int64_t TraceNowNanos();
}  // namespace detail

inline bool TracingEnabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

// Steady-clock nanoseconds since the process-wide trace epoch. For ad-hoc
// interval measurement consistent with Span timestamps.
inline int64_t NowNanos() { return detail::TraceNowNanos(); }

void EnableTracing(bool enabled);

// Chrome trace_event JSON object: {"displayTimeUnit": "ms",
// "traceEvents": [...]} with events sorted by (tid, ts) so nesting reads
// top-down. Timestamps are microseconds since the trace epoch.
std::string TraceToJson();

// Discards all recorded events (buffers stay registered).
void ResetTrace();

// Total events dropped to the per-thread buffer cap since the last reset.
uint64_t TraceDroppedEvents();

// RAII scoped timer. `name` must outlive the span (string literals in
// practice). Optionally observes the duration (in microseconds) into
// `histogram` even when tracing is off, so phase histograms work without
// a trace buffer. `elapsed_us_out`, when non-null, also arms the span and
// receives the duration in microseconds on destruction — how the
// snapshot builder hands per-phase times to the timeseries recorder.
class Span {
 public:
  explicit Span(std::string_view name, Histogram* histogram = nullptr,
                double* elapsed_us_out = nullptr)
      : name_(name), histogram_(histogram), elapsed_us_out_(elapsed_us_out) {
    // The profiler hook runs before the clock read so sampled stacks
    // cover the whole timed region.
    hooked_ = SpanHookEnabled();
    if (hooked_) {
      detail::PushSpanFrame(name);
    }
    armed_ = (histogram_ != nullptr) || (elapsed_us_out_ != nullptr) ||
             TracingEnabled();
    if (armed_) {
      start_ns_ = detail::TraceNowNanos();
    }
  }
  ~Span() {
    if (armed_) {
      Finish();
    }
    // Popped after Finish so the frame is live for the span's full
    // duration; hooked_ (not the current hook flag) keeps push/pop
    // balanced when profiling starts or stops mid-span.
    if (hooked_) {
      detail::PopSpanFrame();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Finish();

  std::string_view name_;
  Histogram* histogram_;
  double* elapsed_us_out_;
  int64_t start_ns_{0};
  bool armed_;
  bool hooked_;
};

}  // namespace leosim::obs
