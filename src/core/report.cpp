#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/parallel.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
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

void EmitStudySummary(const StudySummary& summary) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("study.runs").Increment();
  registry.GetCounter("study.snapshots_built").Add(summary.snapshots_built);
  registry.GetCounter("study.pairs_routed").Add(summary.pairs_routed);
  registry.GetCounter("study.pairs_unreachable").Add(summary.pairs_unreachable);
  obs::LogInfo("study.summary")
      .Field("study", summary.study)
      .Field("snapshots_built", summary.snapshots_built)
      .Field("pairs_routed", summary.pairs_routed)
      .Field("pairs_unreachable", summary.pairs_unreachable)
      .Field("wall_s", summary.wall_seconds);
}

RunReport::RunReport(std::string run_name) : name_(std::move(run_name)) {}

void RunReport::AddParam(std::string_view key, double value) {
  params_.emplace_back(std::string(key), value);
}

void RunReport::AddSummary(const StudySummary& summary) {
  summaries_.push_back(summary);
}

std::string RunReport::ToJson() const {
  std::string out = "{\n  \"run\": ";
  obs::AppendJsonString(&out, name_);
  out += ",\n  \"threads\": ";
  obs::AppendInt(&out, DefaultWorkerCount());
  out += ",\n  \"wall_seconds\": ";
  obs::AppendJsonNumber(&out, timer_.Seconds());
  out += ",\n  \"params\": {";
  for (size_t i = 0; i < params_.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ");
    obs::AppendJsonString(&out, params_[i].first);
    out += ": ";
    obs::AppendJsonNumber(&out, params_[i].second);
  }
  out += "\n  },\n  \"studies\": [";
  for (size_t i = 0; i < summaries_.size(); ++i) {
    const StudySummary& s = summaries_[i];
    out += (i == 0 ? "\n    " : ",\n    ");
    out += "{\"study\": ";
    obs::AppendJsonString(&out, s.study);
    out += ", \"snapshots_built\": ";
    obs::AppendUint(&out, s.snapshots_built);
    out += ", \"pairs_routed\": ";
    obs::AppendUint(&out, s.pairs_routed);
    out += ", \"pairs_unreachable\": ";
    obs::AppendUint(&out, s.pairs_unreachable);
    out += ", \"wall_seconds\": ";
    obs::AppendJsonNumber(&out, s.wall_seconds);
    out += "}";
  }
  out += "\n  ],\n  \"metrics\": ";
  // The registry emits a complete JSON object; inline it (trailing
  // newline trimmed) as the manifest's "metrics" member.
  std::string metrics = obs::MetricsRegistry::Global().ToJson();
  while (!metrics.empty() && metrics.back() == '\n') {
    metrics.pop_back();
  }
  out += metrics;
  out += "\n}\n";
  return out;
}

}  // namespace leosim::core
