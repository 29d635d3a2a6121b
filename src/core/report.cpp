#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"

namespace leosim::core {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
    }
    os << '\n';
  };
  print_row(headers_);
  std::string rule;
  for (size_t c = 0; c < headers_.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  os << rule << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << value;
  return ss.str();
}

void PrintBanner(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

void CountStudyPairs(uint64_t routed, uint64_t unreachable) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("study.pairs_routed").Add(routed);
  registry.GetCounter("study.pairs_unreachable").Add(unreachable);
}

}  // namespace leosim::core
