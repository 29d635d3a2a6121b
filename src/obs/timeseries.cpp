#include "obs/timeseries.hpp"

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "obs/json.hpp"
#include "obs/schemas.hpp"

namespace leosim::obs {

namespace {

struct Sample {
  std::string key;
  double t;
  double value;
};

struct SampleBuffer {
  Mutex mutex;
  std::vector<Sample> samples LEOSIM_GUARDED_BY(mutex);
  uint64_t dropped LEOSIM_GUARDED_BY(mutex) = 0;
};

struct BufferRegistry {
  Mutex mutex;
  std::vector<std::shared_ptr<SampleBuffer>> buffers LEOSIM_GUARDED_BY(mutex);
};

BufferRegistry& Registry() {
  static BufferRegistry* registry = new BufferRegistry();  // never destroyed:
  // worker threads may record past static destruction order.
  return *registry;
}

// The calling thread's buffer; the registry's shared_ptr keeps samples
// alive after the thread joins, so exports after ParallelFor see every
// worker's samples.
SampleBuffer& ThreadBuffer() {
  thread_local std::shared_ptr<SampleBuffer> buffer = [] {
    auto created = std::make_shared<SampleBuffer>();
    BufferRegistry& registry = Registry();
    const MutexLock lock(registry.mutex);
    registry.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

TimeseriesRecorder& TimeseriesRecorder::Global() {
  static TimeseriesRecorder* recorder = new TimeseriesRecorder();
  return *recorder;
}

void TimeseriesRecorder::RecordAlways(double t, std::string_view key,
                                      double value) {
  SampleBuffer& buffer = ThreadBuffer();
  const MutexLock lock(buffer.mutex);
  if (buffer.samples.size() >= kMaxTimeseriesSamplesPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.samples.push_back(Sample{std::string(key), t, value});
}

void TimeseriesRecorder::RecordSeries(std::string_view key,
                                      const std::vector<double>& times,
                                      const std::vector<double>& values) {
  if (!Enabled()) {
    return;
  }
  const size_t count = std::min(times.size(), values.size());
  for (size_t i = 0; i < count; ++i) {
    if (values[i] != values[i]) {
      continue;  // NaN marks "no sample this slot"
    }
    RecordAlways(times[i], key, values[i]);
  }
}

std::string TimeseriesRecorder::ToJson() const {
  std::vector<Sample> merged;
  uint64_t dropped = 0;
  {
    BufferRegistry& registry = Registry();
    const MutexLock registry_lock(registry.mutex);
    for (const std::shared_ptr<SampleBuffer>& buffer : registry.buffers) {
      const MutexLock buffer_lock(buffer->mutex);
      merged.insert(merged.end(), buffer->samples.begin(),
                    buffer->samples.end());
      dropped += buffer->dropped;
    }
  }
  // (key, t, value) is a total order over everything the studies emit, so
  // the export does not depend on which worker recorded which sample —
  // the determinism the byte-identical regression test relies on.
  std::sort(merged.begin(), merged.end(), [](const Sample& a, const Sample& b) {
    return std::tie(a.key, a.t, a.value) < std::tie(b.key, b.t, b.value);
  });

  std::string out = "{\n  \"schema\": \"";
  out.append(kTimeseriesSchema);
  out.append("\",\n");
  out.append("  \"dropped_samples\": ");
  AppendUint(&out, dropped);
  out.append(",\n  \"series\": {");
  bool first_key = true;
  for (size_t i = 0; i < merged.size();) {
    size_t end = i;
    while (end < merged.size() && merged[end].key == merged[i].key) {
      ++end;
    }
    out.append(first_key ? "\n    " : ",\n    ");
    first_key = false;
    AppendJsonString(&out, merged[i].key);
    out.append(": [");
    for (size_t s = i; s < end; ++s) {
      out.append(s == i ? "\n      [" : ",\n      [");
      AppendJsonNumber(&out, merged[s].t);
      out.append(", ");
      AppendJsonNumber(&out, merged[s].value);
      out.push_back(']');
    }
    out.append("\n    ]");
    i = end;
  }
  out.append("\n  }\n}\n");
  return out;
}

void TimeseriesRecorder::Reset() {
  BufferRegistry& registry = Registry();
  const MutexLock registry_lock(registry.mutex);
  for (const std::shared_ptr<SampleBuffer>& buffer : registry.buffers) {
    const MutexLock buffer_lock(buffer->mutex);
    buffer->samples.clear();
    buffer->dropped = 0;
  }
}

uint64_t TimeseriesRecorder::DroppedSamples() const {
  uint64_t total = 0;
  BufferRegistry& registry = Registry();
  const MutexLock registry_lock(registry.mutex);
  for (const std::shared_ptr<SampleBuffer>& buffer : registry.buffers) {
    const MutexLock buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

}  // namespace leosim::obs
