#include "core/export.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

namespace leosim::core {

CsvWriter::CsvWriter(std::ostream& os, std::vector<std::string> columns)
    : os_(os), columns_(columns.size()) {
  if (columns.empty()) {
    throw std::invalid_argument("CSV needs at least one column");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) {
      os_ << ',';
    }
    os_ << CsvEscape(columns[i]);
  }
  os_ << '\n';
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CSV row width does not match the header");
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      os_ << ',';
    }
    os_ << CsvEscape(cells[i]);
  }
  os_ << '\n';
  ++rows_;
}

void CsvWriter::WriteRow(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) {
    std::ostringstream ss;
    ss.precision(17);
    ss << v;
    cells.push_back(ss.str());
  }
  WriteRow(cells);
}

std::string CsvEscape(const std::string& cell) {
  const bool needs_quoting =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) {
    return cell;
  }
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void WriteCdfCsv(std::ostream& os, const std::string& value_column,
                 const std::vector<std::pair<double, double>>& cdf) {
  CsvWriter writer(os, {value_column, "cdf"});
  for (const auto& [value, fraction] : cdf) {
    writer.WriteRow(std::vector<double>{value, fraction});
  }
}

}  // namespace leosim::core
