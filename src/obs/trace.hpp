// Trace spans for the snapshot pipeline, exported as Chrome trace_event
// JSON (loadable in chrome://tracing and Perfetto).
//
// A Span is an RAII scoped timer and the only clock in the pipeline:
// metrics count work, spans measure time. Cost model: when tracing and
// the profiling hook (obs/profile.hpp) are disabled, constructing a Span
// is two relaxed atomic loads and two branches — no clock read. When
// tracing is on, the span reads the steady clock twice and, on
// destruction, records a completed ("ph":"X") event into the calling
// thread's buffer (one uncontended mutex, no allocation once the buffer
// has grown).
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
// practice).
class Span {
 public:
  explicit Span(std::string_view name) : name_(name) {
    // The profiler hook runs before the clock read so sampled stacks
    // cover the whole timed region.
    hooked_ = SpanHookEnabled();
    if (hooked_) {
      detail::PushSpanFrame(name);
    }
    armed_ = TracingEnabled();
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
  int64_t start_ns_{0};
  bool armed_;
  bool hooked_;
};

}  // namespace leosim::obs
