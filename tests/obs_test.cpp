// Unit tests for the obs subsystem: log level gating, sharded metric
// merges, span nesting, timeseries recording, progress heartbeats, and
// the JSON exports (validated with a strict little scanner so a stray
// comma or unescaped quote fails here rather than in chrome://tracing).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/report.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/progress.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "scoped_threads.hpp"

namespace leosim::obs {
namespace {

// --- Minimal strict JSON validator ------------------------------------
//
// Accepts exactly one JSON value (RFC 8259 grammar, no extensions). Good
// enough to catch the classic emitter bugs: trailing commas, bare NaN or
// Infinity, unescaped control characters, unbalanced brackets.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    size_t digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      pos_ = start;
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return true;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        if (!String()) {
          return false;
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return false;
        }
        ++pos_;
        if (!Value()) {
          return false;
        }
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      if (pos_ >= text_.size() || text_[pos_] != '}') {
        return false;
      }
      ++pos_;
      return true;
    }
    if (c == '[') {
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        if (!Value()) {
          return false;
        }
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      if (pos_ >= text_.size() || text_[pos_] != ']') {
        return false;
      }
      ++pos_;
      return true;
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }

  const std::string& text_;
  size_t pos_{0};
};

// Captures log lines through a scoped sink/level override and restores
// the previous configuration on destruction, so tests do not leak
// logging state into each other.
class LogCapture {
 public:
  explicit LogCapture(LogLevel level) : previous_level_(GetLogLevel()) {
    SetLogLevel(level);
    SetLogSink([this](std::string_view line) {
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() {
    SetLogSink(nullptr);
    SetLogLevel(previous_level_);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  LogLevel previous_level_;
  std::vector<std::string> lines_;
};

TEST(ObsLogTest, ParseLogLevelRoundTrip) {
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("bogus"), LogLevel::kOff);
  for (const LogLevel level : {LogLevel::kOff, LogLevel::kError, LogLevel::kWarn,
                               LogLevel::kInfo, LogLevel::kDebug}) {
    EXPECT_EQ(ParseLogLevel(ToString(level)), level);
  }
}

TEST(ObsLogTest, LevelGateSuppressesBelowThreshold) {
  LogCapture capture(LogLevel::kWarn);
  LogDebug("gate.debug").Field("k", 1);
  LogInfo("gate.info").Field("k", 2);
  ASSERT_TRUE(capture.lines().empty());
  LogWarn("gate.warn").Field("k", 3);
  LogError("gate.error").Field("k", 4);
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_NE(capture.lines()[0].find("gate.warn"), std::string::npos);
  EXPECT_NE(capture.lines()[0].find("k=3"), std::string::npos);
  EXPECT_NE(capture.lines()[1].find("gate.error"), std::string::npos);
}

TEST(ObsLogTest, OffDisablesEverything) {
  LogCapture capture(LogLevel::kOff);
  LogError("gate.none").Field("k", 1);
  EXPECT_TRUE(capture.lines().empty());
}

TEST(ObsLogTest, FieldsQuoteAwkwardValues) {
  LogCapture capture(LogLevel::kInfo);
  LogInfo("quoting")
      .Field("plain", "simple")
      .Field("spaced", "two words")
      .Field("empty", "")
      .Field("flag", true)
      .Field("ratio", 0.5);
  ASSERT_EQ(capture.lines().size(), 1u);
  const std::string& line = capture.lines()[0];
  EXPECT_NE(line.find("plain=simple"), std::string::npos);
  EXPECT_NE(line.find("spaced=\"two words\""), std::string::npos);
  EXPECT_NE(line.find("empty=\"\""), std::string::npos);
  EXPECT_NE(line.find("flag=true"), std::string::npos);
  EXPECT_NE(line.find("ratio=0.5"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(ObsMetricsTest, CounterMergesAcrossThreads) {
  const MetricsRegistry::ScopedReset reset;
  Counter& counter = MetricsRegistry::Global().GetCounter("test.counter_merge");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      // Pin distinct shards so the test covers the merge, not one slot.
      const ScopedShard pin(t);
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetricsTest, ScopedResetIsolatesAndCleansUp) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test.scoped_reset");
  counter.Add(5);
  {
    const MetricsRegistry::ScopedReset reset;
    // Entry reset: the increments from outside the scope are gone.
    EXPECT_EQ(counter.Value(), 0u);
    counter.Add(3);
    EXPECT_EQ(counter.Value(), 3u);
  }
  // Exit reset: nothing leaks to whoever observes the registry next.
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(ObsMetricsTest, RegistryJsonIsValidAndContainsMetrics) {
  const MetricsRegistry::ScopedReset reset;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json_counter").Add(7);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.json_counter\": 7"), std::string::npos);
  // Counters are the whole export: no timing, so no run-to-run noise.
  EXPECT_EQ(json.rfind("{\n  \"counters\": {", 0), 0u) << json;
  EXPECT_EQ(json.find("\n  \"", 2), std::string::npos) << json;
}

TEST(ObsTraceTest, DisabledSpansRecordNothing) {
  EnableTracing(false);
  ResetTrace();
  {
    const Span span("trace.disabled");
  }
  const std::string json = TraceToJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_EQ(json.find("trace.disabled"), std::string::npos);
}

TEST(ObsTraceTest, NestedSpansExportParentFirst) {
  EnableTracing(true);
  ResetTrace();
  {
    const Span outer("trace.outer");
    {
      const Span inner("trace.inner");
      // Ensure a measurable inner duration so outer strictly contains it.
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) {
        sink = sink + i;
      }
    }
  }
  EnableTracing(false);
  const std::string json = TraceToJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  const size_t outer_pos = json.find("trace.outer");
  const size_t inner_pos = json.find("trace.inner");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  // Same thread, outer starts no later and lasts no shorter: the sort
  // order (tid, ts asc, dur desc) must list the parent first.
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  ResetTrace();
}

TEST(ObsTraceTest, ManyThreadsProduceValidTrace) {
  EnableTracing(true);
  ResetTrace();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const Span span("trace.worker_span");
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EnableTracing(false);
  const std::string json = TraceToJson();
  EXPECT_TRUE(JsonScanner(json).Valid());
  // All events survive the workers' exit (buffers outlive the threads).
  size_t events = 0;
  for (size_t pos = json.find("trace.worker_span"); pos != std::string::npos;
       pos = json.find("trace.worker_span", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(TraceDroppedEvents(), 0u);
  ResetTrace();
}

// Enables timeseries recording for the test body and restores a clean,
// disabled recorder on exit.
class ScopedTimeseries {
 public:
  ScopedTimeseries() {
    TimeseriesRecorder::Global().Reset();
    TimeseriesRecorder::Global().Enable(true);
  }
  ~ScopedTimeseries() {
    TimeseriesRecorder::Global().Enable(false);
    TimeseriesRecorder::Global().Reset();
  }
};

TEST(ObsTimeseriesTest, DisabledRecordIsANoOp) {
  TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
  recorder.Reset();
  recorder.Enable(false);
  recorder.Record(0.0, "ts.disabled", 1.0);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_EQ(json.find("ts.disabled"), std::string::npos);
}

TEST(ObsTimeseriesTest, ExportIsValidSortedJson) {
  const ScopedTimeseries scoped;
  TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
  // Recorded deliberately out of order: the export sorts by (key, t).
  recorder.Record(2.0, "ts.b", 20.0);
  recorder.Record(1.0, "ts.b", 10.0);
  recorder.Record(0.0, "ts.a", 1.0);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"leosim.timeseries/1\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_samples\": 0"), std::string::npos);
  const size_t a_pos = json.find("\"ts.a\"");
  const size_t b_pos = json.find("\"ts.b\"");
  ASSERT_NE(a_pos, std::string::npos);
  ASSERT_NE(b_pos, std::string::npos);
  EXPECT_LT(a_pos, b_pos);
  // Within ts.b, t=1 precedes t=2.
  const size_t t1 = json.find("[1, 10]", b_pos);
  const size_t t2 = json.find("[2, 20]", b_pos);
  ASSERT_NE(t1, std::string::npos);
  ASSERT_NE(t2, std::string::npos);
  EXPECT_LT(t1, t2);
}

TEST(ObsTimeseriesTest, NonFiniteValuesExportAsNull) {
  const ScopedTimeseries scoped;
  TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
  recorder.Record(0.0, "ts.nonfinite",
                  std::numeric_limits<double>::infinity());
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_NE(json.find("[0, null]"), std::string::npos) << json;
}

TEST(ObsTimeseriesTest, IdenticalRunsExportByteIdenticalJson) {
  // Two "runs" record the same logical samples with work shuffled across
  // different thread counts; the sorted export must not care.
  const auto run = [](int num_threads) {
    TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
    recorder.Reset();
    recorder.Enable(true);
    constexpr int kSamples = 256;
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([t, num_threads] {
        TimeseriesRecorder& r = TimeseriesRecorder::Global();
        for (int i = t; i < kSamples; i += num_threads) {
          r.Record(static_cast<double>(i), "ts.det.x", i * 0.25);
          r.Record(static_cast<double>(i), "ts.det.y", 1000.0 - i);
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    const std::string json = recorder.ToJson();
    recorder.Enable(false);
    recorder.Reset();
    return json;
  };
  const std::string first = run(2);
  const std::string second = run(7);
  EXPECT_TRUE(JsonScanner(first).Valid());
  EXPECT_EQ(first, second);
}

TEST(ObsTimeseriesTest, RecordSeriesMatchesPerSampleRecord) {
  // One whole-array emission must export exactly like the equivalent
  // per-slot Record calls, with NaN entries skipped ("no sample this
  // slot") and non-NaN infinities kept (they export as null but still
  // count as samples).
  const std::vector<double> times = {0.0, 10.0, 20.0, 30.0};
  const std::vector<double> values = {
      1.5, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), 4.5};
  const auto run = [&](bool series) {
    TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
    recorder.Reset();
    recorder.Enable(true);
    if (series) {
      recorder.RecordSeries("ts.series", times, values);
    } else {
      for (size_t i = 0; i < times.size(); ++i) {
        if (values[i] == values[i]) {
          recorder.Record(times[i], "ts.series", values[i]);
        }
      }
    }
    const std::string json = recorder.ToJson();
    recorder.Enable(false);
    recorder.Reset();
    return json;
  };
  const std::string from_series = run(true);
  const std::string from_samples = run(false);
  EXPECT_TRUE(JsonScanner(from_series).Valid()) << from_series;
  EXPECT_EQ(from_series, from_samples);
  // The NaN slot is absent, not null: exactly three samples.
  EXPECT_NE(from_series.find("[0, 1.5]"), std::string::npos) << from_series;
  EXPECT_NE(from_series.find("[20, null]"), std::string::npos) << from_series;
  EXPECT_NE(from_series.find("[30, 4.5]"), std::string::npos) << from_series;
  EXPECT_EQ(from_series.find("[10,"), std::string::npos) << from_series;
}

TEST(ObsTimeseriesTest, RecordSeriesDisabledIsANoOp) {
  TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
  recorder.Reset();
  ASSERT_FALSE(recorder.Enabled());
  recorder.RecordSeries("ts.series.off", {0.0}, {1.0});
  const std::string json = recorder.ToJson();
  EXPECT_EQ(json.find("ts.series.off"), std::string::npos);
}

TEST(ObsTimeseriesTest, OverflowCountsDroppedSamples) {
  const ScopedTimeseries scoped;
  TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
  // This thread's buffer may already hold samples from earlier tests on
  // this thread, so fill relative to the cap.
  for (std::size_t i = 0; i < kMaxTimeseriesSamplesPerThread + 10; ++i) {
    recorder.Record(0.0, "ts.flood", 0.0);
  }
  EXPECT_GE(recorder.DroppedSamples(), 10u);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonScanner(json).Valid());
  EXPECT_EQ(json.find("\"dropped_samples\": 0"), std::string::npos);
}

TEST(ObsProgressTest, OffMeansNoLines) {
  SetProgressInterval(0.0);
  LogCapture capture(LogLevel::kOff);
  {
    ProgressReporter progress("test_off", 4);
    progress.Step(4);
    EXPECT_EQ(progress.completed(), 4u);
  }
  EXPECT_TRUE(capture.lines().empty());
  EXPECT_FALSE(ProgressEnabled());
}

TEST(ObsProgressTest, HeartbeatAndFinalLineWhenEnabled) {
  // A vanishing interval makes every Step eligible to emit; the level is
  // kOff to prove heartbeats bypass the log-level gate (asking for
  // progress is the gate).
  SetProgressInterval(1e-9);
  {
    LogCapture capture(LogLevel::kOff);
    {
      ProgressReporter progress("test_beat", 3);
      for (int i = 0; i < 3; ++i) {
        progress.Step();
      }
    }
    ASSERT_FALSE(capture.lines().empty());
    bool saw_heartbeat = false;
    for (const std::string& line : capture.lines()) {
      EXPECT_NE(line.find("[progress]"), std::string::npos) << line;
      if (line.find("test_beat done=") != std::string::npos &&
          line.find("test_beat.done") == std::string::npos) {
        saw_heartbeat = true;
        EXPECT_NE(line.find("total=3"), std::string::npos) << line;
      }
    }
    EXPECT_TRUE(saw_heartbeat);
    // Destructor emits the final summary line.
    const std::string& last = capture.lines().back();
    EXPECT_NE(last.find("test_beat.done"), std::string::npos) << last;
    EXPECT_NE(last.find("done=3"), std::string::npos) << last;
  }
  SetProgressInterval(0.0);
}

TEST(ObsProgressTest, StepsFromManyThreadsSumExactly) {
  SetProgressInterval(1e-9);
  {
    LogCapture capture(LogLevel::kOff);
    constexpr int kThreads = 8;
    constexpr int kSteps = 1000;
    {
      ProgressReporter progress("test_mt",
                                static_cast<uint64_t>(kThreads) * kSteps);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&progress] {
          for (int i = 0; i < kSteps; ++i) {
            progress.Step();
          }
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
      EXPECT_EQ(progress.completed(),
                static_cast<uint64_t>(kThreads) * kSteps);
    }
    // The final line reports the exact total despite concurrent emitters.
    const std::string& last = capture.lines().back();
    EXPECT_NE(last.find("test_mt.done"), std::string::npos) << last;
    EXPECT_NE(last.find("done=8000"), std::string::npos) << last;
  }
  SetProgressInterval(0.0);
}

// Collapsed-stack text as a stack -> nanoseconds map, after checking
// its grammar.
std::map<std::string, int64_t> ProfileStacks() {
  const std::string text = CollapsedStacks();
  std::string why;
  EXPECT_TRUE(ValidateCollapsedStacks(text, &why)) << why << "\n" << text;
  std::map<std::string, int64_t> stacks;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t space = line.rfind(' ');
    stacks[line.substr(0, space)] = std::stoll(line.substr(space + 1));
  }
  return stacks;
}

std::set<std::string> Keys(const std::map<std::string, int64_t>& stacks) {
  std::set<std::string> keys;
  for (const auto& [stack, ns] : stacks) {
    keys.insert(stack);
  }
  return keys;
}

// Duration in nanoseconds of the one trace event named `name` (the
// export prints microseconds to three decimals, i.e. exact nanoseconds).
int64_t TracedNanos(const std::string& json, const std::string& name) {
  const std::string key = "{\"name\": \"" + name + "\"";
  const size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name;
  EXPECT_EQ(json.find(key, at + 1), std::string::npos) << name;
  const size_t dur = json.find("\"dur\": ", at);
  return std::llround(std::stod(json.substr(dur + 7)) * 1e3);
}

// A little work, so that a span lasts a measurable time.
void Spin() {
  volatile double sink = 0.0;
  for (int i = 0; i < 1000; ++i) {
    sink = sink + i;
  }
}

TEST(ObsProfileTest, DisabledProfilerRecordsNothing) {
  ResetProfile();
  // With tracing and profiling off, the mode word a Span loads is 0 and
  // its constructor does nothing more.
  ASSERT_EQ(detail::g_span_mode.load(), 0);
  {
    const Span outer("profile.unsampled");
    const Span inner("profile.unsampled_inner");
  }
  const std::string collapsed = CollapsedStacks();
  EXPECT_TRUE(collapsed.empty()) << collapsed;
  // The empty export is itself a valid collapsed-stack document.
  std::string why;
  EXPECT_TRUE(ValidateCollapsedStacks(collapsed, &why)) << why;
}

// Each worker's spans nest under its parallel.worker root; at one
// worker that root runs inline under parallel.run on the caller.
TEST(ObsProfileTest, WorkerStacksAreExactAtOneAndFourThreads) {
  const auto run = [](int threads) {
    ResetProfile();
    StartProfiling();
    {
      const core::ScopedThreads scope(threads);
      core::ParallelForWorkers(8, [](int /*worker*/, int /*index*/) {
        const Span body("profile.test_body");
        const Span leaf("profile.test_leaf");
        Spin();
      });
    }
    StopProfiling();
    return Keys(ProfileStacks());
  };
  EXPECT_EQ(run(1), (std::set<std::string>{
                        "parallel.run",
                        "parallel.run;parallel.worker",
                        "parallel.run;parallel.worker;profile.test_body",
                        "parallel.run;parallel.worker;profile.test_body;"
                        "profile.test_leaf",
                    }));
  EXPECT_EQ(run(4), (std::set<std::string>{
                        "parallel.run",
                        "parallel.worker",
                        "parallel.worker;profile.test_body",
                        "parallel.worker;profile.test_body;profile.test_leaf",
                    }));
  ResetProfile();
  EXPECT_TRUE(CollapsedStacks().empty());
}

// Self times come from the spans' own clock reads: with tracing on too,
// a leaf's self time is its traced duration, an inner frame's is its
// duration less its children's, and a root's stacks sum to the root's
// duration, all to the nanosecond.
TEST(ObsProfileTest, SelfTimesMatchTheTraceExactly) {
  ResetProfile();
  ResetTrace();
  EnableTracing(true);
  StartProfiling();
  {
    const Span root("profile.root");
    {
      const Span mid("profile.mid");
      {
        const Span leaf("profile.leaf");
        Spin();
      }
      Spin();
    }
    {
      const Span other("profile.other");
      Spin();
    }
  }
  StopProfiling();
  EnableTracing(false);
  const std::string json = TraceToJson();
  const std::map<std::string, int64_t> stacks = ProfileStacks();
  ASSERT_EQ(Keys(stacks), (std::set<std::string>{
                              "profile.root",
                              "profile.root;profile.mid",
                              "profile.root;profile.mid;profile.leaf",
                              "profile.root;profile.other",
                          }));
  EXPECT_EQ(stacks.at("profile.root;profile.mid;profile.leaf"),
            TracedNanos(json, "profile.leaf"));
  EXPECT_EQ(stacks.at("profile.root;profile.other"),
            TracedNanos(json, "profile.other"));
  EXPECT_EQ(stacks.at("profile.root;profile.mid"),
            TracedNanos(json, "profile.mid") - TracedNanos(json, "profile.leaf"));
  int64_t total = 0;
  for (const auto& [stack, ns] : stacks) {
    total += ns;
  }
  EXPECT_EQ(total, TracedNanos(json, "profile.root"));
  ResetTrace();
  ResetProfile();
}

// A span latches the profile bit when it opens: one opened before
// StartProfiling is no frame, and one open at StopProfiling is popped
// (and counted) when it closes, so later stacks start from an empty
// stack either way. Frame names are sanitised for the grammar.
TEST(ObsProfileTest, SpansAcrossStartAndStopLeaveStacksBalanced) {
  ResetProfile();
  {
    const Span before("profile.before");
    StartProfiling();
    {
      const Span b("profile.b");
      const Span c("profile.c d;e");
      Spin();
    }
    {
      const Span open_at_stop("profile.open_at_stop");
      Spin();
      StopProfiling();
    }
    StartProfiling();
  }
  {
    const Span after("profile.after");
    const Span leaf("profile.leaf");
    Spin();
  }
  StopProfiling();
  EXPECT_EQ(Keys(ProfileStacks()), (std::set<std::string>{
                                       "profile.after",
                                       "profile.after;profile.leaf",
                                       "profile.b",
                                       "profile.b;profile.c_d_e",
                                       "profile.open_at_stop",
                                   }));
  ResetProfile();
}

TEST(ObsProfileTest, CollapsedValidatorAcceptsAndRejects) {
  std::string why;
  EXPECT_TRUE(ValidateCollapsedStacks("", &why)) << why;
  EXPECT_TRUE(ValidateCollapsedStacks("a;b 3\nc 1\n", &why)) << why;
  EXPECT_FALSE(ValidateCollapsedStacks("a;b 3", nullptr));  // no newline
  EXPECT_FALSE(ValidateCollapsedStacks("a;b\n", nullptr));  // no count
  EXPECT_FALSE(ValidateCollapsedStacks("a;b 0\n", nullptr));
  EXPECT_FALSE(ValidateCollapsedStacks("a;b 01\n", nullptr));
  EXPECT_FALSE(ValidateCollapsedStacks("a;;b 1\n", nullptr));  // empty frame
  EXPECT_FALSE(ValidateCollapsedStacks(";a 1\n", nullptr));
  EXPECT_FALSE(ValidateCollapsedStacks("b 1\na 1\n", nullptr));  // unsorted
  EXPECT_FALSE(ValidateCollapsedStacks("a 1\na 2\n", nullptr));  // duplicate
  EXPECT_FALSE(ValidateCollapsedStacks("a b;c 1\n", nullptr));  // space frame
  EXPECT_FALSE(ValidateCollapsedStacks("a\tb 1\n", nullptr));
  // The why-string names the offending line.
  EXPECT_FALSE(ValidateCollapsedStacks("a 1\nb 0\n", &why));
  EXPECT_NE(why.find("line 2"), std::string::npos) << why;
}

// --- Shared JSON encoder and file writer --------------------------------

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(&out, value);
  return out;
}

std::string JsonString(std::string_view text) {
  std::string out;
  AppendJsonString(&out, text);
  return out;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ObsJsonTest, NumberWritesNullForNonFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(inf), "null");
  EXPECT_EQ(JsonNumber(-inf), "null");
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonNumber(-2.0), "-2");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::max()),
            "1.7976931348623157e+308");
}

TEST(ObsJsonTest, StringWithControlCharactersStaysValid) {
  std::string name = "a\"b\\c/";
  for (char c = 1; c < 0x20; ++c) {
    name.push_back(c);
  }
  name.push_back('\x7f');
  name += "\xc3\xa9";  // UTF-8 passes through
  const std::string encoded = JsonString(name);
  EXPECT_TRUE(JsonScanner(encoded).Valid()) << encoded;
  EXPECT_TRUE(JsonScanner("{" + encoded + ": 1}").Valid()) << encoded;
  EXPECT_EQ(JsonString("t\tr\rn\n\x01\x1f"), "\"t\\tr\\rn\\n\\u0001\\u001f\"");
  EXPECT_EQ(JsonString("q\"s\\"), "\"q\\\"s\\\\\"");
  EXPECT_EQ(JsonString(std::string_view("\0", 1)), "\"\\u0000\"");

  // The exporters take the same encoder for their names.
  const MetricsRegistry::ScopedReset reset;
  MetricsRegistry::Global().GetCounter(name).Increment();
  const std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
}

TEST(ObsJsonTest, ExportsWithNonFiniteValuesScanValid) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    const ScopedTimeseries scoped;
    TimeseriesRecorder& recorder = TimeseriesRecorder::Global();
    recorder.Record(nan, "ts.json_nan", nan);
    recorder.Record(1.0, "ts.json_inf", -inf);
    const std::string json = recorder.ToJson();
    EXPECT_TRUE(JsonScanner(json).Valid()) << json;
    EXPECT_NE(json.find("[null, null]"), std::string::npos) << json;
    EXPECT_NE(json.find("[1, null]"), std::string::npos) << json;
  }
  {
    core::RunReport report("json\tnon-finite");
    report.AddParam("nan", nan);
    report.AddParam("inf", inf);
    report.AddParam("count", 3);
    core::StudySummary summary;
    summary.study = "non-finite";
    summary.wall_seconds = -inf;
    report.AddSummary(summary);
    const std::string json = report.ToJson();
    EXPECT_TRUE(JsonScanner(json).Valid()) << json;
    EXPECT_NE(json.find("\"nan\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"inf\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"count\": 3\n"), std::string::npos) << json;
  }
}

TEST(ObsJsonTest, WriteFileWritesExactBytes) {
  const std::string path =
      testing::TempDir() + "obs_write_file_" + std::to_string(getpid());
  const char raw[] = "{\"a\": 1}\n\0\xff tail";  // NUL and a non-UTF-8 byte
  const std::string bytes(raw, sizeof(raw) - 1);
  ASSERT_TRUE(WriteFile(path, bytes));
  EXPECT_EQ(ReadBytes(path), bytes);
  // A second write replaces the file rather than appending.
  ASSERT_TRUE(WriteFile(path, "x"));
  EXPECT_EQ(ReadBytes(path), "x");
  ASSERT_TRUE(WriteFile(path, ""));
  EXPECT_EQ(ReadBytes(path), "");
  std::remove(path.c_str());
}

TEST(ObsJsonTest, WriteFileReportsFailures) {
  // A directory cannot be opened for writing, nor can a file whose
  // parent does not exist.
  EXPECT_FALSE(WriteFile(testing::TempDir(), "x"));
  EXPECT_FALSE(WriteFile(testing::TempDir() + "obs_no_such_dir_" +
                             std::to_string(getpid()) + "/x.json",
                         "x"));
  // A device that takes the buffered bytes but fails the flush in
  // fclose: the error surfaces only when the file is closed.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_FALSE(WriteFile("/dev/full", "{}\n"));
  }
}

}  // namespace
}  // namespace leosim::obs
