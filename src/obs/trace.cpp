#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace leosim::obs {

namespace detail {

std::atomic<uint8_t> g_span_mode{0};

namespace {

struct TraceEvent {
  std::string name;
  int64_t start_ns;
  int64_t duration_ns;
};

struct TraceBuffer {
  Mutex mutex;
  std::vector<TraceEvent> events LEOSIM_GUARDED_BY(mutex);
  uint64_t dropped LEOSIM_GUARDED_BY(mutex) = 0;
  // Written once under the registry lock before the buffer is published,
  // immutable afterwards — no capability needed.
  int tid = 0;
};

struct TraceRegistry {
  Mutex mutex;
  std::vector<std::shared_ptr<TraceBuffer>> buffers LEOSIM_GUARDED_BY(mutex);
  int next_tid LEOSIM_GUARDED_BY(mutex) = 0;
};

TraceRegistry& Registry() {
  static TraceRegistry* registry = new TraceRegistry();  // never destroyed:
  // worker threads may record past static destruction order.
  return *registry;
}

// The calling thread's buffer. The thread_local shared_ptr plus the
// registry's copy keep events alive after the thread joins, so exports
// after ParallelFor see every worker's spans.
TraceBuffer& ThreadBuffer() {
  thread_local std::shared_ptr<TraceBuffer> buffer = [] {
    auto created = std::make_shared<TraceBuffer>();
    TraceRegistry& registry = Registry();
    const MutexLock lock(registry.mutex);
    created->tid = registry.next_tid++;
    registry.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

// Records one completed span on the calling thread's buffer.
void RecordTraceEvent(std::string_view name, int64_t start_ns,
                      int64_t duration_ns) {
  TraceBuffer& buffer = ThreadBuffer();
  const MutexLock lock(buffer.mutex);
  if (buffer.events.size() >= kMaxTraceEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(TraceEvent{std::string(name), start_ns, duration_ns});
}

}  // namespace

int64_t TraceNowNanos() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace detail

void EnableTracing(bool enabled) {
  if (enabled) {
    detail::g_span_mode.fetch_or(detail::kTraceBit, std::memory_order_relaxed);
  } else {
    detail::g_span_mode.fetch_and(static_cast<uint8_t>(~detail::kTraceBit),
                                  std::memory_order_relaxed);
  }
}

void Span::Begin() {
  // The frame is pushed before the first clock read and popped after
  // the second, so their cost lands in the parent's self time.
  if ((mode_ & detail::kProfileBit) != 0) {
    detail::PushProfileFrame(name_);
  }
  start_ns_ = detail::TraceNowNanos();
}

void Span::End() {
  // One duration feeds both exports.
  const int64_t duration_ns = detail::TraceNowNanos() - start_ns_;
  // A span open while tracing switches off records nothing.
  if ((mode_ & detail::g_span_mode.load(std::memory_order_relaxed) &
       detail::kTraceBit) != 0) {
    detail::RecordTraceEvent(name_, start_ns_, duration_ns);
  }
  if ((mode_ & detail::kProfileBit) != 0) {
    detail::PopProfileFrame(duration_ns);
  }
}

std::string TraceToJson() {
  struct FlatEvent {
    int tid;
    detail::TraceEvent event;
  };
  std::vector<FlatEvent> flat;
  {
    detail::TraceRegistry& registry = detail::Registry();
    const MutexLock registry_lock(registry.mutex);
    for (const std::shared_ptr<detail::TraceBuffer>& buffer :
         registry.buffers) {
      const MutexLock buffer_lock(buffer->mutex);
      for (const detail::TraceEvent& event : buffer->events) {
        flat.push_back(FlatEvent{buffer->tid, event});
      }
    }
  }
  // Sort by (tid, start, longest-first) so a parent span precedes its
  // children in the file — chrome://tracing nests them correctly and
  // tests can check nesting by scanning in order.
  std::sort(flat.begin(), flat.end(), [](const FlatEvent& a,
                                         const FlatEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.event.start_ns != b.event.start_ns) {
      return a.event.start_ns < b.event.start_ns;
    }
    return a.event.duration_ns > b.event.duration_ns;
  });

  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  for (size_t i = 0; i < flat.size(); ++i) {
    out.append(i == 0 ? "\n    " : ",\n    ");
    out.append("{\"name\": ");
    AppendJsonString(&out, flat[i].event.name);
    char tmp[96];
    std::snprintf(tmp, sizeof(tmp),
                  ", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f}",
                  flat[i].tid,
                  static_cast<double>(flat[i].event.start_ns) * 1e-3,
                  static_cast<double>(flat[i].event.duration_ns) * 1e-3);
    out.append(tmp);
  }
  out.append("\n  ]\n}\n");
  return out;
}

void ResetTrace() {
  detail::TraceRegistry& registry = detail::Registry();
  const MutexLock registry_lock(registry.mutex);
  for (const std::shared_ptr<detail::TraceBuffer>& buffer : registry.buffers) {
    const MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

uint64_t TraceDroppedEvents() {
  uint64_t total = 0;
  detail::TraceRegistry& registry = detail::Registry();
  const MutexLock registry_lock(registry.mutex);
  for (const std::shared_ptr<detail::TraceBuffer>& buffer : registry.buffers) {
    const MutexLock buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

}  // namespace leosim::obs
