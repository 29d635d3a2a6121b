#include "obs/progress.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "obs/trace.hpp"

namespace leosim::obs {

namespace {

// Interval in nanoseconds, 0 = off.
std::atomic<int64_t> g_progress_interval_ns{0};

int64_t ToIntervalNs(double seconds) {
  if (!(seconds > 0.0)) {
    return 0;
  }
  return static_cast<int64_t>(seconds * 1e9);
}

int64_t ProgressIntervalNs() {
  return g_progress_interval_ns.load(std::memory_order_relaxed);
}

struct SinkState {
  Mutex mutex;
  ProgressSink sink LEOSIM_GUARDED_BY(mutex);  // empty = default stderr sink
};

SinkState& Sink() {
  static SinkState* state = new SinkState();  // never destroyed: worker
  // threads may report past static destruction order.
  return *state;
}

void EmitLine(std::string_view line) {
  SinkState& state = Sink();
  const MutexLock lock(state.mutex);
  if (state.sink) {
    state.sink(line);
  } else {
    std::fwrite(line.data(), 1, line.size(), stderr);
  }
}

}  // namespace

bool ProgressEnabled() { return ProgressIntervalNs() > 0; }

void SetProgressInterval(double seconds) {
  g_progress_interval_ns.store(ToIntervalNs(seconds),
                               std::memory_order_relaxed);
}

void SetProgressSink(ProgressSink sink) {
  SinkState& state = Sink();
  const MutexLock lock(state.mutex);
  state.sink = std::move(sink);
}

ProgressReporter::ProgressReporter(std::string_view label, uint64_t total_steps)
    : label_(label), total_(total_steps), enabled_(ProgressEnabled()) {
  if (enabled_) {
    interval_ns_ = ProgressIntervalNs();
    start_ns_ = detail::TraceNowNanos();
    next_emit_ns_.store(start_ns_ + interval_ns_, std::memory_order_relaxed);
  }
}

ProgressReporter::~ProgressReporter() {
  if (enabled_) {
    Emit(completed(), /*final_line=*/true);
  }
}

void ProgressReporter::Step(uint64_t n) {
  const uint64_t done = completed_.fetch_add(n, std::memory_order_relaxed) + n;
  if (!enabled_) {
    return;
  }
  const int64_t now = detail::TraceNowNanos();
  int64_t deadline = next_emit_ns_.load(std::memory_order_relaxed);
  if (now < deadline) {
    return;
  }
  // One thread wins the deadline and emits; losers saw the CAS fail and
  // carry on — the heartbeat never serialises the workers.
  if (next_emit_ns_.compare_exchange_strong(deadline, now + interval_ns_,
                                            std::memory_order_relaxed)) {
    Emit(done, /*final_line=*/false);
  }
}

void ProgressReporter::Emit(uint64_t done, bool final_line) const {
  const double elapsed_sec =
      static_cast<double>(detail::TraceNowNanos() - start_ns_) * 1e-9;
  const double rate =
      elapsed_sec > 0.0 ? static_cast<double>(done) / elapsed_sec : 0.0;
  char buf[256];
  int len;
  if (final_line) {
    len = std::snprintf(buf, sizeof(buf),
                        "[progress] %s.done done=%" PRIu64 " total=%" PRIu64
                        " wall_s=%.2f rate_per_s=%.2f\n",
                        label_.c_str(), done, total_, elapsed_sec, rate);
  } else if (total_ > 0 && rate > 0.0) {
    const uint64_t remaining = total_ > done ? total_ - done : 0;
    len = std::snprintf(buf, sizeof(buf),
                        "[progress] %s done=%" PRIu64 " total=%" PRIu64
                        " pct=%.1f rate_per_s=%.2f eta_s=%.1f\n",
                        label_.c_str(), done, total_,
                        100.0 * static_cast<double>(done) /
                            static_cast<double>(total_),
                        rate, static_cast<double>(remaining) / rate);
  } else {
    len = std::snprintf(buf, sizeof(buf),
                        "[progress] %s done=%" PRIu64 " rate_per_s=%.2f\n",
                        label_.c_str(), done, rate);
  }
  if (len > 0) {
    EmitLine(std::string_view(
        buf, static_cast<size_t>(len < static_cast<int>(sizeof(buf))
                                     ? len
                                     : static_cast<int>(sizeof(buf)) - 1)));
  }
}

}  // namespace leosim::obs
