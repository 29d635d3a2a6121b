// CSV export of experiment series, so results can be re-plotted with any
// external tool (the paper's figures are CDFs and time series).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace leosim::core {

class CsvWriter {
 public:
  // Writes the header row immediately.
  CsvWriter(std::ostream& os, std::vector<std::string> columns);

  // Cells are quoted only when they contain commas/quotes/newlines.
  void WriteRow(const std::vector<std::string>& cells);

  // Numeric convenience; values are formatted with enough digits to
  // round-trip doubles.
  void WriteRow(const std::vector<double>& values);

  int rows_written() const { return rows_; }

 private:
  std::ostream& os_;
  size_t columns_;
  int rows_{0};
};

// Escapes one CSV cell per RFC 4180.
std::string CsvEscape(const std::string& cell);

// Writes an empirical CDF as (value, cumulative_fraction) rows.
void WriteCdfCsv(std::ostream& os, const std::string& value_column,
                 const std::vector<std::pair<double, double>>& cdf);

}  // namespace leosim::core
