// Trace spans for the snapshot pipeline, exported as Chrome trace_event
// JSON (loadable in chrome://tracing and Perfetto).
//
// A Span is an RAII scoped timer and the only clock in the pipeline:
// metrics count work, spans measure time. Its one measurement feeds two
// exports: the trace here (EnableTracing) and the self-time profile of
// obs/profile.hpp (StartProfiling). Cost model: a Span's constructor
// reads one relaxed atomic mode word and branches. With both exports off
// that is all — no clock read. With either on, the span reads the steady
// clock once at each end; tracing then records a completed ("ph":"X")
// event into the calling thread's buffer (one uncontended mutex, no
// allocation once the buffer has grown), and profiling pushes and pops a
// thread-local frame.
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

namespace leosim::obs {

inline constexpr std::size_t kMaxTraceEventsPerThread = std::size_t{1} << 16;

namespace detail {
// The span exports that are on: kTraceBit (EnableTracing) and
// kProfileBit (StartProfiling/StopProfiling).
inline constexpr uint8_t kTraceBit = 1;
inline constexpr uint8_t kProfileBit = 2;
extern std::atomic<uint8_t> g_span_mode;
// Nanoseconds since the process-wide trace epoch (first use).
int64_t TraceNowNanos();
}  // namespace detail

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
  // The mode is latched here, so a span records into the exports that
  // were on when it opened, and a profile frame pushed here is popped
  // in the destructor even if profiling stops meanwhile.
  explicit Span(std::string_view name)
      : name_(name),
        mode_(detail::g_span_mode.load(std::memory_order_relaxed)) {
    if (mode_ != 0) {
      Begin();
    }
  }
  ~Span() {
    if (mode_ != 0) {
      End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin();
  void End();

  std::string_view name_;
  int64_t start_ns_{0};
  uint8_t mode_;
};

}  // namespace leosim::obs
