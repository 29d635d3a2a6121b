// Fixed-width table printing for the benchmark harnesses, so every bench
// binary emits the paper's rows/series in a uniform format — plus the
// study-summary and run-manifest hooks of the observability layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leosim::core {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Adds a row; cells are printed as-is. Numeric helpers format through
  // FormatDouble below.
  void AddRow(std::vector<std::string> cells);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Fixed-precision formatting (trailing zeros kept, e.g. "12.30").
std::string FormatDouble(double value, int precision = 2);

// Prints a section banner: "== title ==".
void PrintBanner(std::ostream& os, const std::string& title);

// What one study run did, in pipeline terms. Studies fill this at the
// end of their Run* entry point and hand it to EmitStudySummary.
struct StudySummary {
  std::string study;               // e.g. "latency", "failure"
  uint64_t snapshots_built{0};
  uint64_t pairs_routed{0};        // routing queries that found a path
  uint64_t pairs_unreachable{0};   // routing queries that found none
  double wall_seconds{0.0};
};

// Wall-clock timer for StudySummary::wall_seconds.
class StudyTimer {
 public:
  StudyTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Logs the summary (info level, event "study.summary") and folds it into
// the global metrics registry (study.runs / study.snapshots_built /
// study.pairs_routed / study.pairs_unreachable counters).
void EmitStudySummary(const StudySummary& summary);

// Run manifest: scenario parameters, effective thread count, wall time,
// per-study summaries, and a snapshot of the global metrics registry,
// composed as one JSON object. Tools pass the same RunReport through every
// study they run and write its ToJson() once at exit (obs::WriteFile).
class RunReport {
 public:
  explicit RunReport(std::string run_name);

  // A numeric parameter; an int converts exactly and prints without a
  // fraction, as %.17g writes it.
  void AddParam(std::string_view key, double value);

  void AddSummary(const StudySummary& summary);

  // The manifest JSON, composed at call time (wall_seconds measures from
  // construction to this call; metrics are read live from the registry).
  std::string ToJson() const;

 private:
  std::string name_;
  StudyTimer timer_;
  std::vector<std::pair<std::string, double>> params_;
  std::vector<StudySummary> summaries_;
};

}  // namespace leosim::core
