// Fixed-width table printing for the benchmark harnesses, so every bench
// binary emits the paper's rows/series in a uniform format — plus the
// pair-reachability counters every routing study adds to.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
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

// Adds one study run's pair reachability to the study.pairs_routed and
// study.pairs_unreachable counters: routing queries that found a path
// and ones that found none.
void CountStudyPairs(uint64_t routed, uint64_t unreachable);

}  // namespace leosim::core
