// Structured logging for leosim: one line per event, `key=value` fields,
// a process-wide level gate, and a swappable sink.
//
// Cost model: with logging off (the default) a log statement costs one
// relaxed atomic load and a branch — no formatting, no allocation, no
// lock — so the snapshot pipeline can carry log statements without perf
// tax. Formatting and the sink mutex are paid only by enabled events.
// The level starts off and is set with SetLogLevel (the --log-level
// flag of every binary, core::ObsFlags).
//
// Usage:
//   obs::LogInfo("study.summary").Field("study", "latency")
//       .Field("snapshots", 96).Field("wall_ms", 148.2);
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace leosim::obs {

enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
};

// "off|error|warn|info|debug"; anything unrecognised maps to kOff, so a
// caller rejects bad input by checking that ToString round-trips it.
LogLevel ParseLogLevel(std::string_view text);
std::string_view ToString(LogLevel level);

namespace detail {
extern std::atomic<int> g_log_level;
void EmitLogLine(const std::string& line);
}  // namespace detail

// The single relaxed load that gates every log statement.
inline bool LogEnabled(LogLevel level) {
  return detail::g_log_level.load(std::memory_order_relaxed) >=
         static_cast<int>(level);
}

LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

// Replaces the sink (default: one fwrite to stderr per line). The sink
// is called with the fully formatted line, newline included, under the
// log mutex — it may be called from any thread but never concurrently.
// Passing nullptr restores the default sink.
using LogSink = std::function<void(std::string_view)>;
void SetLogSink(LogSink sink);

// One log event. Inactive (level-gated) instances ignore Field calls and
// emit nothing; active ones format into a local buffer and hand the
// completed line to the sink on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view event);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  LogLine& Field(std::string_view key, std::string_view value);
  LogLine& Field(std::string_view key, const char* value);
  LogLine& Field(std::string_view key, const std::string& value);
  LogLine& Field(std::string_view key, double value);
  LogLine& Field(std::string_view key, int64_t value);
  LogLine& Field(std::string_view key, uint64_t value);
  LogLine& Field(std::string_view key, int value);
  LogLine& Field(std::string_view key, bool value);

 private:
  bool active_;
  std::string buf_;
};

inline LogLine LogError(std::string_view event) {
  return LogLine(LogLevel::kError, event);
}
inline LogLine LogWarn(std::string_view event) {
  return LogLine(LogLevel::kWarn, event);
}
inline LogLine LogInfo(std::string_view event) {
  return LogLine(LogLevel::kInfo, event);
}
inline LogLine LogDebug(std::string_view event) {
  return LogLine(LogLevel::kDebug, event);
}

}  // namespace leosim::obs
