#include "obs/log.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"

namespace leosim::obs {

namespace detail {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kOff)};

namespace {

struct SinkState {
  Mutex mutex;
  LogSink sink LEOSIM_GUARDED_BY(mutex);  // empty = default stderr sink
};

SinkState& Sink() {
  static SinkState* state = new SinkState();  // never destroyed: worker
  // threads may log past static destruction order.
  return *state;
}

}  // namespace

void EmitLogLine(const std::string& line) {
  SinkState& state = Sink();
  const MutexLock lock(state.mutex);
  if (state.sink) {
    state.sink(line);
  } else {
    std::fwrite(line.data(), 1, line.size(), stderr);
  }
}

}  // namespace detail

LogLevel ParseLogLevel(std::string_view text) {
  if (text == "error") return LogLevel::kError;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "info") return LogLevel::kInfo;
  if (text == "debug") return LogLevel::kDebug;
  return LogLevel::kOff;
}

std::string_view ToString(LogLevel level) {
  switch (level) {
    case LogLevel::kOff:
      return "off";
    case LogLevel::kError:
      return "error";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kDebug:
      return "debug";
  }
  return "off";
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(detail::g_log_level.load(std::memory_order_relaxed));
}

void SetLogLevel(LogLevel level) {
  detail::g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void SetLogSink(LogSink sink) {
  detail::SinkState& state = detail::Sink();
  const MutexLock lock(state.mutex);
  state.sink = std::move(sink);
}

namespace {

// Strings with whitespace, quotes, or '=' are quoted so a line always
// splits unambiguously on spaces then on the first '='.
bool NeedsQuoting(std::string_view value) {
  if (value.empty()) {
    return true;
  }
  for (const char c : value) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '"' || c == '=') {
      return true;
    }
  }
  return false;
}

void AppendValue(std::string* buf, std::string_view value) {
  if (!NeedsQuoting(value)) {
    buf->append(value);
    return;
  }
  buf->push_back('"');
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      buf->push_back('\\');
    }
    if (c == '\n') {
      buf->append("\\n");
      continue;
    }
    buf->push_back(c);
  }
  buf->push_back('"');
}

}  // namespace

LogLine::LogLine(LogLevel level, std::string_view event)
    : active_(LogEnabled(level)) {
  if (!active_) {
    return;
  }
  buf_.reserve(96);
  buf_.push_back('[');
  buf_.append(ToString(level));
  buf_.append("] ");
  buf_.append(event);
}

LogLine::~LogLine() {
  if (!active_) {
    return;
  }
  buf_.push_back('\n');
  detail::EmitLogLine(buf_);
}

LogLine& LogLine::Field(std::string_view key, std::string_view value) {
  if (active_) {
    buf_.push_back(' ');
    buf_.append(key);
    buf_.push_back('=');
    AppendValue(&buf_, value);
  }
  return *this;
}

LogLine& LogLine::Field(std::string_view key, const char* value) {
  return Field(key, std::string_view(value));
}

LogLine& LogLine::Field(std::string_view key, const std::string& value) {
  return Field(key, std::string_view(value));
}

LogLine& LogLine::Field(std::string_view key, double value) {
  if (active_) {
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), "%.6g", value);
    Field(key, std::string_view(tmp));
  }
  return *this;
}

LogLine& LogLine::Field(std::string_view key, int64_t value) {
  if (active_) {
    char tmp[24];
    std::snprintf(tmp, sizeof(tmp), "%" PRId64, value);
    Field(key, std::string_view(tmp));
  }
  return *this;
}

LogLine& LogLine::Field(std::string_view key, uint64_t value) {
  if (active_) {
    char tmp[24];
    std::snprintf(tmp, sizeof(tmp), "%" PRIu64, value);
    Field(key, std::string_view(tmp));
  }
  return *this;
}

LogLine& LogLine::Field(std::string_view key, int value) {
  return Field(key, static_cast<int64_t>(value));
}

LogLine& LogLine::Field(std::string_view key, bool value) {
  return Field(key, value ? std::string_view("true") : std::string_view("false"));
}

}  // namespace leosim::obs
