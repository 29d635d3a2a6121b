#include "core/cli_flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <system_error>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/progress.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

[[noreturn]] void Reject(std::string_view flag, std::string_view text,
                         const std::string& expected) {
  throw std::invalid_argument(std::string(flag) + ": expected " + expected +
                              ", got '" + std::string(text) + "'");
}

}  // namespace

int ParseInt(std::string_view flag, std::string_view text, int lo, int hi) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    Reject(flag, text, "an integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]");
  }
  return value;
}

double ParseDouble(std::string_view flag, std::string_view text, double lo,
                   double hi) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) || value < lo ||
      value > hi) {
    char range[64];
    std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
    Reject(flag, text, std::string("a number in ") + range);
  }
  return value;
}

std::optional<std::string_view> FlagValue(std::string_view arg,
                                          std::string_view name) {
  if (arg.size() > name.size() && arg.substr(0, name.size()) == name &&
      arg[name.size()] == '=') {
    return arg.substr(name.size() + 1);
  }
  return std::nullopt;
}

bool ObsFlags::Take(std::string_view arg) {
  if (const auto v = FlagValue(arg, "--metrics-out")) {
    metrics_out_ = *v;
  } else if (const auto v = FlagValue(arg, "--trace-out")) {
    trace_out_ = *v;
  } else if (const auto v = FlagValue(arg, "--timeseries-out")) {
    timeseries_out_ = *v;
  } else if (const auto v = FlagValue(arg, "--profile-out")) {
    profile_out_ = *v;
  } else if (const auto v = FlagValue(arg, "--progress")) {
    progress_sec_ = ParseDouble("--progress", *v, 0.0, 86400.0);
  } else if (arg == "--progress") {
    progress_sec_ = obs::kDefaultProgressIntervalSec;
  } else {
    return false;
  }
  return true;
}

void ObsFlags::Apply() const {
  if (!trace_out_.empty()) {
    obs::EnableTracing(true);
  }
  if (!timeseries_out_.empty()) {
    obs::TimeseriesRecorder::Global().Enable(true);
  }
  if (!profile_out_.empty()) {
    obs::StartProfiling();
  }
  if (progress_sec_.has_value()) {
    obs::SetProgressInterval(*progress_sec_);
  }
}

int ObsFlags::WriteOutputs(std::string_view note_prefix) const {
  int rc = 0;
  const auto write = [&](const std::string& path, auto&& bytes) {
    if (path.empty()) {
      return;
    }
    if (obs::WriteFile(path, bytes())) {
      std::fprintf(stderr, "%.*swrote %s\n", static_cast<int>(note_prefix.size()),
                   note_prefix.data(), path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      rc = 1;
    }
  };
  write(metrics_out_, [] { return obs::MetricsRegistry::Global().ToJson(); });
  write(trace_out_, [] { return obs::TraceToJson(); });
  write(timeseries_out_,
        [] { return obs::TimeseriesRecorder::Global().ToJson(); });
  write(profile_out_, [] {
    obs::StopProfiling();
    return obs::CollapsedStacks();
  });
  return rc;
}

int RunMain(int argc, char** argv, int (*body)(int argc, char** argv)) {
  const std::string_view path = argc > 0 ? argv[0] : "";
  const std::string_view prog = path.substr(path.find_last_of('/') + 1);
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::string what = e.what();
    for (char& c : what) {
      c = c == '\n' ? ' ' : c;
    }
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(prog.size()),
                 prog.data(), what.c_str());
    return 2;
  }
}

}  // namespace leosim::core
