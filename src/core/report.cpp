#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/export.hpp"
#include "core/parallel.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/number_format.hpp"

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

namespace {

// Unlike the obs exporters, a manifest writes a non-finite value as
// printf spells it rather than as null.
std::string JsonDouble(double value) {
  std::string out;
  obs::AppendG17(&out, value);
  return out;
}

}  // namespace

RunReport::RunReport(std::string run_name) : name_(std::move(run_name)) {}

void RunReport::AddParam(std::string_view key, std::string_view value) {
  params_.emplace_back(std::string(key), JsonEscape(std::string(value)));
}

void RunReport::AddParam(std::string_view key, const char* value) {
  AddParam(key, std::string_view(value));
}

void RunReport::AddParam(std::string_view key, double value) {
  params_.emplace_back(std::string(key), JsonDouble(value));
}

void RunReport::AddParam(std::string_view key, int64_t value) {
  params_.emplace_back(std::string(key), std::to_string(value));
}

void RunReport::AddParam(std::string_view key, int value) {
  AddParam(key, static_cast<int64_t>(value));
}

void RunReport::AddParam(std::string_view key, bool value) {
  params_.emplace_back(std::string(key), value ? "true" : "false");
}

void RunReport::AddSummary(const StudySummary& summary) {
  summaries_.push_back(summary);
}

std::string RunReport::ToJson() const {
  std::string out = "{\n  \"run\": ";
  out += JsonEscape(name_);
  out += ",\n  \"threads\": " + std::to_string(DefaultWorkerCount());
  out += ",\n  \"wall_seconds\": " + JsonDouble(timer_.Seconds());
  out += ",\n  \"params\": {";
  for (size_t i = 0; i < params_.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ");
    out += JsonEscape(params_[i].first) + ": " + params_[i].second;
  }
  out += "\n  },\n  \"studies\": [";
  for (size_t i = 0; i < summaries_.size(); ++i) {
    const StudySummary& s = summaries_[i];
    out += (i == 0 ? "\n    " : ",\n    ");
    out += "{\"study\": " + JsonEscape(s.study);
    out += ", \"snapshots_built\": " + std::to_string(s.snapshots_built);
    out += ", \"pairs_routed\": " + std::to_string(s.pairs_routed);
    out += ", \"pairs_unreachable\": " + std::to_string(s.pairs_unreachable);
    out += ", \"wall_seconds\": " + JsonDouble(s.wall_seconds) + "}";
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

bool RunReport::WriteManifest(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace leosim::core
