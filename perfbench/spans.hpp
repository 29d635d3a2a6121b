// In-memory span recorder for the benchmark's traced replay.
//
// Spans are recorded from the benchmark's own files, around its calls
// into each leosim layer: name, start, end, parent span and time slot.
// A recorder belongs to one thread, so it keeps one open-span stack and
// children nest strictly inside their parent; a span's self time is its
// duration minus the durations of its direct children. Worker threads
// record into their own recorders, which are merged with Adopt once the
// workers have joined. Spans stay in memory until the run ends and are
// then written as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace leobench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  int64_t start_ns{0};
  int64_t end_ns{0};
  int parent{-1};  // index into the recorder's spans; -1 for a root
  int slot{-1};    // time slot the span belongs to; -1 outside slots
  int64_t child_ns{0};

  double DurationMs() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
  double SelfMs() const {
    return static_cast<double>(end_ns - start_ns - child_ns) * 1e-6;
  }
};

class SpanRecorder {
 public:
  int Begin(const char* name, int slot) {
    const int id = static_cast<int>(spans_.size());
    SpanRecord record;
    record.name = name;
    record.parent = open_.empty() ? -1 : open_.back();
    record.slot = slot;
    record.start_ns = NowNs();
    spans_.push_back(std::move(record));
    open_.push_back(id);
    return id;
  }

  void End(int id) {
    SpanRecord& record = spans_[static_cast<size_t>(id)];
    record.end_ns = NowNs();
    open_.pop_back();
    if (record.parent >= 0) {
      spans_[static_cast<size_t>(record.parent)].child_ns +=
          record.end_ns - record.start_ns;
    }
  }

  // Appends another recorder's finished spans; its roots become children
  // of `parent`. The parent's child time is left alone: adopted spans ran
  // on other threads, in parallel with it.
  void Adopt(const SpanRecorder& other, int parent) {
    const int offset = static_cast<int>(spans_.size());
    for (SpanRecord s : other.spans_) {
      s.parent = s.parent < 0 ? parent : s.parent + offset;
      spans_.push_back(std::move(s));
    }
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Durations (ms) of every span with this name, in record order.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) {
        out.push_back(s.DurationMs());
      }
    }
    return out;
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder makes it a no-op, so untraced code paths
// share the traced ones.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, int slot = -1)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->Begin(name, slot) : -1) {}
  ~Span() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace leobench
